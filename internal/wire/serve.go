package wire

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trace"
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
// it ends. It owns the request/reply contract, so that no dispatcher repeats
// it. Every request gets exactly one reply; fatal=true closes the connection
// after the reply is sent. A request lacking the payload its type needs, a
// hello or zone report naming no client, a sample or zone report naming a
// network or metric the tree does not define (radio.AllNetworks,
// trace.AllMetrics), or a sample report holding a value beyond
// ±core.MaxSampleMagnitude is refused here, with an error reply and a close,
// and dispatch never sees it: dispatch may dereference the payload its
// request's type selects unchecked, and never files a sample under an
// invented name or of a value a zone's sketch cannot hold. A peer silent for longer than idle
// (zero disables) is dropped, and so is one that does not read a reply
// within idle of its sending; an oversized message is answered with "message
// too large" before the connection closes, and anything else unreadable
// closes it silently.
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
// before it reads the next request: dispatch builds a task list, an ack, an
// estimate reply or a zone list in out, the connection's own Replies, which
// the next reply overwrites, or returns one that a Call on an upstream Conn
// decoded, as the gateway relays a shard's task list. A zone list and its
// records are in a slot out borrows from a package pool (Replies.RecordBuf),
// and ServeConn gives it back once the reply is sent, so an idle connection
// holds no list.
func ServeConn(nc net.Conn, idle time.Duration, m ServeMetrics, dispatch func(req Envelope, out *Replies) (reply Envelope, fatal bool)) {
	m.Connections.Inc()
	c := NewConn(nc).Instrument(m.Codec)
	defer c.Close()
	for {
		if idle > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(idle))
		}
		req, err := c.recv(&c.store)
		if err != nil && !errors.Is(err, ErrMessageTooLarge) {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				m.IdleDisconnects.Inc()
			}
			return
		}
		var reply Envelope
		fatal := true
		switch msg := refusal(&req); {
		case err != nil:
			reply = ErrorReply("message too large")
		case msg != "":
			reply = ErrorReply(msg)
		default:
			t0 := time.Now()
			reply, fatal = dispatch(req, &c.store.replies)
			m.Latency.Observe(time.Since(t0).Seconds())
		}
		if reply.Type == TypeError {
			m.ProtocolErrors.Inc()
		}
		if idle > 0 {
			_ = nc.SetWriteDeadline(time.Now().Add(idle))
		}
		err = c.Send(reply)
		c.store.replies.putZoneList()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			m.IdleDisconnects.Inc()
		}
		if err != nil || fatal {
			return
		}
	}
}

// refusal is why ServeConn refuses req before any dispatcher sees it, or "":
// the payload its type needs is missing, it is a hello or zone report that
// names no client, a sample or zone report that names a network or metric
// the tree does not define, or a sample report holding a value beyond
// ±core.MaxSampleMagnitude.
func refusal(req *Envelope) string {
	switch {
	case !req.hasPayload():
		return fmt.Sprintf("%s request has no payload", req.Type)
	case req.Type == TypeHello && req.Hello.ClientID == "",
		req.Type == TypeZoneReport && req.ZoneReport.ClientID == "":
		return fmt.Sprintf("%s requires a client id", req.Type)
	}
	if name := unknownName(req); name != "" {
		return fmt.Sprintf("%s names unknown network or metric %.32q", req.Type, name)
	}
	if v, ok := outsizedValue(req); ok {
		return fmt.Sprintf("%s holds a value of %g, beyond ±%g", req.Type, v, core.MaxSampleMagnitude)
	}
	return ""
}

// outsizedValue returns the first value of a sample report whose magnitude
// is over core.MaxSampleMagnitude, or is not a number.
func outsizedValue(req *Envelope) (float64, bool) {
	if req.Type != TypeSampleReport {
		return 0, false
	}
	for i := range req.SampleReport.Samples {
		if v := req.SampleReport.Samples[i].Value; !(math.Abs(v) <= core.MaxSampleMagnitude) {
			return v, true
		}
	}
	return 0, false
}

// unknownName returns the first network or metric of a sample or zone report
// outside radio.AllNetworks and trace.AllMetrics, or "".
func unknownName(req *Envelope) string {
	switch req.Type {
	case TypeSampleReport:
		for i := range req.SampleReport.Samples {
			s := &req.SampleReport.Samples[i]
			if !slices.Contains(radio.AllNetworks, s.Network) {
				return string(s.Network)
			}
			if !slices.Contains(trace.AllMetrics, s.Metric) {
				return string(s.Metric)
			}
		}
	case TypeZoneReport:
		for _, n := range req.ZoneReport.Networks {
			if !slices.Contains(radio.AllNetworks, n) {
				return string(n)
			}
		}
	}
	return ""
}
