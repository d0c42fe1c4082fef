package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"net"
	"time"

	"repro/internal/wire"
)

// countingConn is the client socket as a cellular client's bill sees it:
// every byte read and written is counted, and the written bytes — the
// generated requests exactly as wire.Conn framed them — feed a SHA-256 so
// rounds can prove they sent the same stream. One goroutine owns it.
type countingConn struct {
	net.Conn
	read, written int64
	sum           hash.Hash
}

func newCountingConn(nc net.Conn) *countingConn {
	return &countingConn{Conn: nc, sum: sha256.New()}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	c.sum.Write(p[:n])
	return n, err
}

func (c *countingConn) bytes() int64 { return c.read + c.written }

// Request kinds, indexing the per-kind latency series.
const (
	kindTask = iota
	kindAck
	kindEstimate
	kindZoneList
	numKinds
)

var kindOps = [numKinds]string{"zone_report", "sample_report", "estimate_request", "zone_list_request"}

// client is one closed-loop connection: it sends the next request only when
// the previous reply is in, with no think time.
type client struct {
	cc  *countingConn
	c   *wire.Conn
	gen *generator
	tr  *tracer // nil unless this is the traced round

	lat       [numKinds][]float64 // ms per successful round trip, current phase
	attempted int
	failed    int
	firstFail string // what the first failed operation got back
	acked     int64  // samples the server acknowledged, whole round

	// Estimate verification tallies, whole round.
	estimates, found, badMean int
	// zoneLists records every zone-list reply's key and record count.
	zoneLists []zoneListObs
}

// zoneListObs is one zone-list reply: which of the six keys it was for and
// how many records came back.
type zoneListObs struct {
	key, records int
}

func dialClient(addr string, gen *generator) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	cc := newCountingConn(nc)
	cl := &client{cc: cc, c: wire.NewConn(cc), gen: gen}
	reply, err := cl.c.Request(wire.Envelope{Type: wire.TypeHello, Hello: &wire.Hello{
		ClientID: gen.ids[0], DeviceClass: "bench",
	}})
	if err != nil || reply.Type != wire.TypeHelloAck {
		_ = nc.Close()
		return nil, fmt.Errorf("hello: reply %q, err %v", reply.Type, err)
	}
	return cl, nil
}

// resetPhase drops the previous phase's latency observations, keeping the
// backing arrays.
func (cl *client) resetPhase() {
	for k := range cl.lat {
		cl.lat[k] = cl.lat[k][:0]
	}
}

// do runs one round trip. An error reply or a wrong reply type counts as a
// failed operation and the loop carries on; a transport error ends the
// round, because the connection is gone.
func (cl *client) do(kind int, req wire.Envelope, want wire.MsgType) (wire.Envelope, bool, error) {
	cl.attempted++
	t0 := time.Now()
	reply, err := cl.c.Request(req)
	t1 := time.Now()
	if err != nil {
		cl.failed++
		return reply, false, fmt.Errorf("%s: %w", req.Type, err)
	}
	cl.tr.add(0, "client", kindOps[kind], t0, t1)
	if reply.Type != want {
		cl.failed++
		if cl.firstFail == "" {
			cl.firstFail = fmt.Sprintf("%s got %s", req.Type, reply.Type)
			if reply.Error != nil {
				cl.firstFail += ": " + reply.Error.Message
			}
		}
		return reply, false, nil
	}
	cl.lat[kind] = append(cl.lat[kind], float64(t1.Sub(t0))/float64(time.Millisecond))
	return reply, true, nil
}

// ingest runs cycles [from, to): zone report, sample report and, on
// query-mixed, the cycle's queries. A positive pace holds the loop to one
// cycle per pace (the warm-up's fixed offered rate); a cycle that is already
// late starts at once.
func (cl *client) ingest(from, to int, pace time.Duration) error {
	start := time.Now()
	for i := from; i < to; i++ {
		if pace > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(i-from) * pace)))
		}
		zr, sr := cl.gen.cycle(i)
		if _, _, err := cl.do(kindTask, zr, wire.TypeTaskList); err != nil {
			return err
		}
		reply, ok, err := cl.do(kindAck, sr, wire.TypeSampleAck)
		if err != nil {
			return err
		}
		if ok {
			cl.acked += int64(reply.SampleAck.Accepted)
			if reply.SampleAck.Accepted != len(sr.SampleReport.Samples) {
				cl.failed++ // a partial ack lost samples
			}
		}
		if !cl.gen.w.mixed {
			continue
		}
		if err := cl.query(mixedEstimates, btoi(i%mixedZoneListEvery == 0)); err != nil {
			return err
		}
	}
	return nil
}

// query issues estimates then zone lists, checking each estimate against
// the generated value range as it arrives.
func (cl *client) query(estimates, zoneLists int) error {
	for n := 0; n < estimates; n++ {
		req := cl.gen.estimate()
		reply, ok, err := cl.do(kindEstimate, req, wire.TypeEstimateReply)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cl.estimates++
		er := reply.EstimateReply
		if !er.Found {
			// Not-found replies take a shorter path; keep them out of the p50.
			cl.lat[kindEstimate] = cl.lat[kindEstimate][:len(cl.lat[kindEstimate])-1]
			continue
		}
		cl.found++
		if lo, hi := valueRange(req.EstimateRequest.Metric); er.Record.MeanValue < lo || er.Record.MeanValue > hi {
			cl.badMean++
		}
	}
	for n := 0; n < zoneLists; n++ {
		key := cl.gen.zoneLists % numKeys
		reply, ok, err := cl.do(kindZoneList, cl.gen.zoneList(), wire.TypeZoneListReply)
		if err != nil {
			return err
		}
		if ok {
			cl.zoneLists = append(cl.zoneLists, zoneListObs{key: key, records: len(reply.ZoneListReply.Records)})
		}
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
