package wire

import (
	"errors"
	"net"
	"os"
	"time"

	"repro/internal/telemetry"
)

// ServeMetrics are the instruments of one request/response endpoint. The
// zero value serves uninstrumented: the telemetry instruments are nil-safe,
// and a nil Codec leaves the connection on the zero bundle NewConn gives it.
type ServeMetrics struct {
	Connections     *telemetry.Counter   // connections served
	ProtocolErrors  *telemetry.Counter   // requests answered with an error reply
	IdleDisconnects *telemetry.Counter   // connections dropped by the idle timeout
	Latency         *telemetry.Histogram // dispatch time, codec excluded
	Codec           *Metrics
}

// ErrorReply builds the error envelope a server answers a bad request with.
func ErrorReply(msg string) Envelope {
	return Envelope{Type: TypeError, Error: &ErrorMsg{Message: msg}}
}

// ServeConn runs one connection's request/response loop and closes nc when
// it ends. Every request gets exactly one reply from dispatch; fatal=true
// closes the connection after the reply is sent. A peer silent for longer
// than idle (zero disables) is dropped, an oversized message is answered
// with "message too large" before the connection closes, and anything else
// unreadable closes it silently.
//
// Unlike an envelope from Recv, a request is valid only until dispatch
// returns: a binary sample or zone report and a via are decoded into storage
// that belongs to the connection, and the next request is decoded over them
// (see requestStore). So dispatch may keep a request's strings, which are
// copies, but neither keep nor hand to another goroutine any of its pointers
// or slices — its SampleReport and Samples, its ZoneReport and Networks, its
// Via — past its return. What it must keep it copies, as the gateway copies a
// hello; what it forwards, it forwards before it returns.
//
// A reply need only be valid until ServeConn has sent it, which it does
// before it reads the next request: dispatch may build it in storage of its
// own that the next reply overwrites, as the coordinator builds task lists
// and acks, or return one that a Call on an upstream Conn decoded, as the
// gateway relays a shard's.
func ServeConn(nc net.Conn, idle time.Duration, m ServeMetrics, dispatch func(Envelope) (reply Envelope, fatal bool)) {
	m.Connections.Inc()
	c := NewConn(nc).Instrument(m.Codec)
	defer c.Close()
	for {
		if idle > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(idle))
		}
		req, err := c.recv(&c.store)
		if err != nil {
			switch {
			case errors.Is(err, ErrMessageTooLarge):
				m.ProtocolErrors.Inc()
				//lint:ignore errdrop best-effort reply on a connection already failing
				_ = c.Send(ErrorReply("message too large"))
			case errors.Is(err, os.ErrDeadlineExceeded):
				m.IdleDisconnects.Inc()
			}
			return
		}
		t0 := time.Now()
		reply, fatal := dispatch(req)
		m.Latency.Observe(time.Since(t0).Seconds())
		if reply.Type == TypeError {
			m.ProtocolErrors.Inc()
		}
		if err := c.Send(reply); err != nil || fatal {
			return
		}
	}
}
