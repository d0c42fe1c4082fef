package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// The binary lines of a client's round trip — a zone report, a task list and
// a sample ack — are held here to their layouts, spelled out by hand, direct
// and relayed, and to their decoders' contract: a line the encoder would not
// write is refused, and one it would is read back to what json.Unmarshal
// makes of the frame's JSON, times in UTC. TestSmallSendBytesMatchJSON holds
// Send's lines to the JSON oracle over the drawn corpus.
//
// Mutants that must fail this package's tests (each did, in a copy): a nil
// list and an empty one spelled alike; a zone coordinate read at 64 bits; a
// count of 2^63 taken as a negative int; a known name spelled out accepted;
// bytes after the payload accepted; a via tag of 2 accepted; a task list sent
// binary to any peer; a peer marked as reading binary replies by a sample
// report, or by any line that decodes; a negative ack written binary; a zone
// report's time written at its offset's wall clock, or its client id or the
// via as they stand when they are not valid UTF-8; a binary frame's buffer
// reserved at JSON's size.

// layoutCase is one frame's binary layout: the envelope, the payload its line
// holds after the via, and edits of that payload, each either a line the
// encoder writes for the envelope edit makes (a non-nil edit) or one Recv
// refuses.
type layoutCase struct {
	e       Envelope
	lead    byte
	payload [][]byte
	edits   []layoutEdit
}

type layoutEdit struct {
	name    string
	payload [][]byte
	edit    func(e *Envelope) // nil: the line is refused
}

// checkLayout holds Send's line for the case's envelope to its layout —
// direct and through a gateway, to a peer that reads binary replies — and
// Recv of it to the JSON oracle; and each edit to its verdict. The third
// gateway's name is not valid UTF-8: the line spells it as JSON carries it.
func checkLayout(t *testing.T, tc layoutCase) {
	t.Helper()
	for _, via := range []*Via{nil, {Gateway: "gw", Shard: "madison"}, {Gateway: "gw\xff\xfe"}} {
		head := [][]byte{{0}}
		if via != nil {
			head = [][]byte{{1}, bstr(string([]rune(via.Gateway))), bstr(via.Shard)}
		}
		line := func(payload [][]byte) []byte { return binaryLineOf(tc.lead, slices.Concat(head, payload)...) }
		e := tc.e
		e.Via = via
		want := line(tc.payload)
		if got := encodeBinaryFrames(t, e); !bytes.Equal(got, want) {
			t.Fatalf("%s (via %v): Send wrote\n%q\nthe layout spells\n%q", e.Type, via != nil, got, want)
		}
		if !checkBinaryLine(t, want) {
			t.Fatalf("%s (via %v): Recv refused %q", e.Type, via != nil, want)
		}
		body := want[1 : len(want)-1]
		for i := range body {
			if _, err := parseBinaryLine(codecByLead(tc.lead), body[:i]); err == nil {
				t.Fatalf("%s (via %v): the line cut at byte %d of its body was taken: %q", e.Type, via != nil, i, body[:i])
			}
		}
		for _, ed := range tc.edits {
			edited := line(ed.payload)
			if ed.edit == nil {
				if got, err := fuzzConn(edited).Recv(); err == nil || errors.Is(err, ErrMessageTooLarge) {
					t.Errorf("%s (via %v), %s: Recv of %q returned %+v, %v; want a decode error", e.Type, via != nil, ed.name, edited, got, err)
				}
				continue
			}
			w := cloneFrame(t, e)
			ed.edit(&w)
			if got := encodeBinaryFrames(t, w); !bytes.Equal(got, edited) {
				t.Errorf("%s (via %v), %s: Send wrote\n%q\nthe layout spells\n%q", e.Type, via != nil, ed.name, got, edited)
			}
			var oracle Envelope
			if err := json.Unmarshal(jsonFrame(t, w), &oracle); err != nil {
				t.Fatal(err)
			}
			if got, err := fuzzConn(edited).Recv(); err != nil || !reflect.DeepEqual(got, inUTC(oracle)) {
				t.Errorf("%s (via %v), %s: Recv %+v, %v\noracle %+v", e.Type, via != nil, ed.name, got, err, oracle)
			}
		}
	}
}

// cloneFrame is a deep copy of e, through its JSON.
func cloneFrame(t *testing.T, e Envelope) Envelope {
	var c Envelope
	if err := json.Unmarshal(jsonFrame(t, e), &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// with replaces parts[i] by b.
func with(parts [][]byte, i int, b ...[]byte) [][]byte {
	return slices.Concat(parts[:i], b, parts[i+1:])
}

func TestBinaryZoneReportLayout(t *testing.T) {
	e := smallFrames()[0]
	at := e.ZoneReport.At
	maxSec := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	// client id · zone x, y · lat, lon, speed · seconds, ns · count+1 · networks
	payload := [][]byte{bstr("bus-17"), sv(-3), sv(7), bf64(43.07), bf64(-89.4), bf64(23.5), sv(at.Unix()), uv(0), uv(3), uv(1), uv(2)}
	zr := func(edit func(r *ZoneReport)) func(e *Envelope) { return func(e *Envelope) { edit(e.ZoneReport) } }
	checkLayout(t, layoutCase{e: e, lead: binaryZoneReportLead, payload: payload, edits: []layoutEdit{
		{"nil networks", slices.Concat(payload[:8], [][]byte{uv(0)}), zr(func(r *ZoneReport) { r.Networks = nil })},
		{"no networks", slices.Concat(payload[:8], [][]byte{uv(1)}), zr(func(r *ZoneReport) { r.Networks = []radio.NetworkID{} })},
		{"an unknown network", with(payload, 10, uv(0), bstr("NetZ")), zr(func(r *ZoneReport) { r.Networks[1] = "NetZ" })},
		{"an empty network", with(payload, 10, uv(0), bstr("")), zr(func(r *ZoneReport) { r.Networks[1] = "" })},
		{"the int32 zones", with(with(payload, 1, sv(math.MinInt32)), 2, sv(math.MaxInt32)),
			zr(func(r *ZoneReport) { r.Zone = geo.ZoneID{X: math.MinInt32, Y: math.MaxInt32} })},
		{"a last nanosecond", with(payload, 7, uv(999999999)), zr(func(r *ZoneReport) { r.At = r.At.Add(999999999) })},
		{"year 9999", with(payload, 6, sv(maxSec)), zr(func(r *ZoneReport) { r.At = time.Unix(maxSec, 0).UTC() })},
		{"a speed of -0", with(payload, 5, bf64(math.Copysign(0, -1))), zr(func(r *ZoneReport) { r.SpeedKmh = math.Copysign(0, -1) })},
		{"an empty client id", with(payload, 0, bstr("")), zr(func(r *ZoneReport) { r.ClientID = "" })},
		{"a client id of invalid UTF-8, as JSON carries it", with(payload, 0, bstr("bus\ufffd\ufffd")),
			zr(func(r *ZoneReport) { r.ClientID = "bus\xff\xc3" })},
		{"a network of invalid UTF-8, as JSON carries it", with(payload, 10, uv(0), bstr("N\ufffd")),
			zr(func(r *ZoneReport) { r.Networks[1] = "N\xc3" })},
		{"a time at an offset, as its instant", payload, zr(func(r *ZoneReport) { r.At = r.At.In(time.FixedZone("", -5*3600)) })},
		{"an offset with seconds, as the instant JSON names", with(payload, 6, sv(at.Unix()-25)),
			zr(func(r *ZoneReport) { r.At = r.At.In(time.FixedZone("", -(5*3600 + 25))) })},

		{"a byte behind", slices.Concat(payload, [][]byte{{0}}), nil},
		{"a client id of invalid UTF-8", with(payload, 0, bstr("bus\xff")), nil},
		{"a zone x of 2^31", with(payload, 1, sv(1<<31)), nil},
		{"a zone y under int32", with(payload, 2, sv(math.MinInt32-1)), nil},
		{"an overlong zone", with(payload, 1, []byte{0x85, 0x00}), nil},
		{"a NaN lat", with(payload, 3, bf64(math.NaN())), nil},
		{"an infinite speed", with(payload, 5, bf64(math.Inf(1))), nil},
		{"year 10000", with(payload, 6, sv(maxSec+1)), nil},
		{"a second of 1e9 ns", with(payload, 7, uv(1e9)), nil},
		{"an overlong ns", with(payload, 7, []byte{0x80, 0x00}), nil},
		{"one network too many", with(payload, 8, uv(4)), nil},
		{"a count past the bytes", with(payload, 8, uv(1<<40)), nil},
		{"a known network spelled out", with(payload, 9, uv(0), bstr(string(radio.NetA))), nil},
		{"a network index past the list", with(payload, 9, uv(uint64(len(radio.AllNetworks)+1))), nil},
		{"a network of invalid UTF-8", with(payload, 9, uv(0), bstr("N\xc3")), nil},
	}})
}

func TestBinaryTaskListLayout(t *testing.T) {
	e := smallFrames()[1]
	netB, tcp, udp := uv(2), uv(1), uv(2) // 1 + index: radio.AllNetworks[1], trace.AllMetrics[0] and [1]
	// count+1 · per task: network · metric · udp_packets · udp_size_bytes · tcp_bytes
	payload := [][]byte{uv(3), netB, udp, uv(100), uv(1200), uv(0), netB, tcp, uv(0), uv(0), uv(256 << 10)}
	tl := func(edit func(l *TaskList)) func(e *Envelope) { return func(e *Envelope) { edit(e.TaskList) } }
	checkLayout(t, layoutCase{e: e, lead: binaryTaskListLead, payload: payload, edits: []layoutEdit{
		{"nil tasks", [][]byte{uv(0)}, tl(func(l *TaskList) { l.Tasks = nil })},
		{"no tasks", [][]byte{uv(1)}, tl(func(l *TaskList) { l.Tasks = []Task{} })},
		{"an unknown metric", with(payload, 7, uv(0), bstr("m")), tl(func(l *TaskList) { l.Tasks[1].Metric = "m" })},
		{"an unknown network", with(payload, 1, uv(0), bstr("NetZ")), tl(func(l *TaskList) { l.Tasks[0].Network = "NetZ" })},
		{"the largest size", with(payload, 10, uv(math.MaxInt64)), tl(func(l *TaskList) { l.Tasks[1].TCPBytes = math.MaxInt64 })},
		{"a metric of invalid UTF-8, as JSON carries it", with(payload, 7, uv(0), bstr("m\ufffd")),
			tl(func(l *TaskList) { l.Tasks[1].Metric = "m\xff" })},

		{"a byte behind", slices.Concat(payload, [][]byte{{0}}), nil},
		{"a size of 2^63", with(payload, 3, uv(1<<63)), nil},
		{"an overlong size", with(payload, 5, []byte{0x80, 0x00}), nil},
		{"one task too many", with(payload, 0, uv(4)), nil},
		{"a count past the bytes", with(payload, 0, uv(1<<40)), nil},
		{"a known metric spelled out", with(payload, 7, uv(0), bstr(string(trace.MetricTCPKbps))), nil},
		{"a metric index past the list", with(payload, 7, uv(uint64(len(trace.AllMetrics)+1))), nil},
		{"a network index past the list", with(payload, 6, uv(uint64(len(radio.AllNetworks)+1))), nil},
	}})
	// A client that never sent a binary line gets the list as JSON.
	if got := encodeFrames(t, e); !bytes.Equal(got, jsonFrame(t, e)) {
		t.Errorf("to a JSON peer: Send wrote %q, want the JSON frame", got)
	}
}

func TestBinarySampleAckLayout(t *testing.T) {
	e := smallFrames()[2]
	ack := func(n int) func(e *Envelope) { return func(e *Envelope) { e.SampleAck.Accepted = n } }
	checkLayout(t, layoutCase{e: e, lead: binarySampleAckLead, payload: [][]byte{uv(7)}, edits: []layoutEdit{
		{"none accepted", [][]byte{uv(0)}, ack(0)},
		{"the most accepted", [][]byte{uv(math.MaxInt64)}, ack(math.MaxInt64)},

		{"a byte behind", [][]byte{uv(7), {0}}, nil},
		{"a count of 2^63", [][]byte{uv(1 << 63)}, nil},
		{"an overlong count", [][]byte{{0x87, 0x00}}, nil},
	}})
	if got := encodeFrames(t, e); !bytes.Equal(got, jsonFrame(t, e)) {
		t.Errorf("to a JSON peer: Send wrote %q, want the JSON frame", got)
	}
}

// TestRepliesFollowThePeer: a Conn answers in binary only once it has
// received a binary zone report, task list or ack. A binary sample report
// alone proves nothing — clients sent those before they read binary replies
// — nor does any JSON frame, nor a binary line that fails to decode.
func TestRepliesFollowThePeer(t *testing.T) {
	ack := smallFrames()[2]
	zoneReport := encodeFrames(t, smallFrames()[0])
	taskList := encodeBinaryFrames(t, smallFrames()[1])
	binaryAck := encodeBinaryFrames(t, ack)
	for name, tc := range map[string]struct {
		received []byte
		binary   bool
	}{
		"nothing":                {nil, false},
		"a binary sample report": {encodeFrames(t, benchReport(5)), false},
		"a JSON zone report":     {jsonFrame(t, smallFrames()[0]), false},
		"a JSON task list":       {jsonFrame(t, smallFrames()[1]), false},
		"a malformed zone report": {
			append(zoneReport[:len(zoneReport)-1:len(zoneReport)-1], 0, '\n'), false},
		"a binary zone report": {zoneReport, true},
		"a binary task list":   {taskList, true},
		"a binary ack":         {binaryAck, true},
	} {
		var out bytes.Buffer
		c := NewConn(byteConn{r: bytes.NewReader(tc.received), w: &out})
		_, _ = c.Recv()
		if err := c.Send(ack); err != nil {
			t.Fatal(err)
		}
		want := jsonFrame(t, ack)
		if tc.binary {
			want = binaryAck
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("after %s: the ack went as %q, want %q", name, out.Bytes(), want)
		}
	}
}

// TestReplyFormAcrossGoroutines: a Conn's one receiving goroutine marks the
// peer while its one sending goroutine answers, as a server's do when a
// gateway pipelines: run under -race, the flag is the only state they share,
// and every ack the sender writes is one whole line, JSON or binary.
func TestReplyFormAcrossGoroutines(t *testing.T) {
	const n = 200
	in := bytes.Repeat(encodeFrames(t, smallFrames()[0]), n)
	var out bytes.Buffer
	c := NewConn(byteConn{r: bytes.NewReader(in), w: &out})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, err := c.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := c.Send(smallFrames()[2]); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	rc := NewConn(byteConn{r: &out})
	for i := 0; i < n; i++ {
		if got, err := rc.Recv(); err != nil || got.SampleAck == nil || got.SampleAck.Accepted != 7 {
			t.Fatalf("ack %d: %+v, %v", i, got, err)
		}
	}
}
