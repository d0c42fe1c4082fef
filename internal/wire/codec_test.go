package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// encodeFrames returns the envelopes framed back to back, as one peer's
// Sends would put them on the stream.
func encodeFrames(t testing.TB, envs ...Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(byteConn{w: &buf})
	for _, e := range envs {
		if err := c.Send(e); err != nil {
			t.Fatalf("send %s: %v", e.Type, err)
		}
	}
	return buf.Bytes()
}

// toBinaryPeer marks c's peer as one that reads binary replies, as Recv of
// a binary zone report, task list or ack does, and returns c.
func toBinaryPeer(c *Conn) *Conn {
	c.peerReadsBinary.Store(true)
	return c
}

// encodeBinaryFrames is encodeFrames to a peer that reads binary replies:
// each frame the binary form carries goes as a binary line.
func encodeBinaryFrames(t testing.TB, envs ...Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := toBinaryPeer(NewConn(byteConn{w: &buf}))
	for _, e := range envs {
		if err := c.Send(e); err != nil {
			t.Fatalf("send %s: %v", e.Type, err)
		}
	}
	return buf.Bytes()
}

// jsonFrame is e's JSON frame, json.Marshal's bytes and a '\n': the frame Send
// writes for every envelope but one of a client's round trip to a peer that
// reads its binary line (TestSendBytesMatchJSON, TestSmallSendBytesMatchJSON),
// and the spelling of those that agents before the binary lines send and
// hand-typed drills still do.
func jsonFrame(t testing.TB, e Envelope) []byte {
	t.Helper()
	frame, err := json.Marshal(&e)
	if err != nil {
		t.Fatalf("marshal %s: %v", e.Type, err)
	}
	return append(frame, '\n')
}

// inUTC moves e's sample times and zone report time to UTC, where Recv puts
// them from either form: it makes what json.Unmarshal decodes a frame to what
// Recv should. It edits e's payloads in place.
func inUTC(e Envelope) Envelope {
	if r := e.SampleReport; r != nil {
		for i := range r.Samples {
			r.Samples[i].Time = r.Samples[i].Time.UTC()
		}
	}
	if e.ZoneReport != nil {
		e.ZoneReport.At = e.ZoneReport.At.UTC()
	}
	return e
}

// errorFrameOf returns an error envelope whose frame, '\n' included, is
// exactly size bytes.
func errorFrameOf(t testing.TB, size int) Envelope {
	t.Helper()
	overhead := len(encodeFrames(t, ErrorReply("")))
	e := ErrorReply(strings.Repeat("x", size-overhead))
	if got := len(encodeFrames(t, e)); got != size {
		t.Fatalf("built a %d-byte frame, want %d", got, size)
	}
	return e
}

// zoneListOf returns a zone-list reply of n distinct records.
func zoneListOf(n int) Envelope {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			Key:       core.Key{Zone: geo.ZoneID{X: int32(i), Y: int32(-i)}, Net: radio.NetB, Metric: trace.MetricUDPKbps},
			MeanValue: 900 + float64(i), StdDev: 12.5, Samples: int64(100 + i),
			P50: 899, P90: 950, P99: 990,
			UpdatedAt: time.Date(2010, 9, 6, 9, 0, i%60, 0, time.UTC),
		}
	}
	return Envelope{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{Records: recs}}
}

// TestRecvDoesNotAliasReadBuffer: Recv decodes a short line in place, from
// bytes the next read overwrites, so nothing in a decoded envelope may point
// into them. Frames of every payload shape (strings, samples, a []byte
// sketch) and of both kinds — shorter than the reader buffer and longer —
// are laid back to back over several buffer refills, all are received, and
// only then is each compared with what was sent.
func TestRecvDoesNotAliasReadBuffer(t *testing.T) {
	r := rng.New(21)
	var sent []Envelope
	for i := 0; i < 30; i++ {
		sketch := make([]byte, 1700)
		for j := range sketch {
			sketch[j] = byte(r.Intn(256))
		}
		report := benchReport(32)
		for j := range report.SampleReport.Samples {
			s := &report.SampleReport.Samples[j]
			s.ClientID = fmt.Sprintf("client-%d-%d", i, j)
			s.Value = r.Float64()
		}
		// The binary decoder's shared strings: every sample of this one
		// holds the report's client id and the first sample's network,
		// metric and device, copied out of the read buffer once.
		shared := benchReport(8)
		shared.Via = &Via{Gateway: fmt.Sprintf("gw-%d", i), Shard: "madison"}
		shared.SampleReport.ClientID = fmt.Sprintf("bus-%d", i)
		for j := range shared.SampleReport.Samples {
			shared.SampleReport.Samples[j].ClientID = shared.SampleReport.ClientID
		}
		sent = append(sent,
			Envelope{Type: TypeHello, Via: &Via{Gateway: fmt.Sprintf("gw-%d", i), Shard: "madison"},
				Hello: &Hello{ClientID: fmt.Sprintf("hello-%d", i), DeviceClass: "laptop-usb-modem"}},
			report,
			shared,
			Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Sketch: sketch,
				Record: core.Record{Key: core.Key{Net: radio.NetB, Metric: trace.MetricRTTMs}, MeanValue: float64(i)}}},
			ErrorReply(strings.Repeat(string(rune('a'+i%26)), 1+r.Intn(300))),
		)
		if i%10 == 9 {
			sent = append(sent, zoneListOf(600)) // > 64 KiB: gathered in a pooled buffer the next long line reuses
		}
	}
	stream := encodeFrames(t, sent...)
	if len(stream) < 4*connBufBytes {
		t.Fatalf("stream is %d bytes; it must span several %d-byte buffer refills", len(stream), connBufBytes)
	}
	c := NewConn(byteConn{r: bytes.NewReader(stream)})
	got := make([]Envelope, len(sent))
	for i := range got {
		var err error
		if got[i], err = c.Recv(); err != nil {
			t.Fatalf("recv %d (%s): %v", i, sent[i].Type, err)
		}
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for i := range sent {
		if !reflect.DeepEqual(got[i], sent[i]) {
			t.Fatalf("envelope %d (%s) changed after later Recvs ran:\n got  %+v\n sent %+v", i, sent[i].Type, got[i], sent[i])
		}
	}
}

// TestRecvAtReadBufferBoundary walks a frame's size across the reader
// buffer's, where Recv switches from decoding in place to gathering the line
// in a pooled buffer, alone and behind a short frame that shifts it across a
// refill.
func TestRecvAtReadBufferBoundary(t *testing.T) {
	short := Envelope{Type: TypeHello, Hello: &Hello{ClientID: "c1"}}
	for _, size := range []int{connBufBytes - 1, connBufBytes, connBufBytes + 1} {
		big := errorFrameOf(t, size)
		for name, envs := range map[string][]Envelope{
			"alone":          {big, short},
			"behind a frame": {short, big, short, big},
		} {
			t.Run(fmt.Sprintf("%d bytes %s", size, name), func(t *testing.T) {
				c := NewConn(byteConn{r: bytes.NewReader(encodeFrames(t, envs...))})
				for i, want := range envs {
					got, err := c.Recv()
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("frame %d: type %s with %d payload bytes, want %s", i, got.Type, len(got.Error.Message), want.Type)
					}
				}
			})
		}
	}

	list := zoneListOf(600)
	frame := encodeFrames(t, list)
	if len(frame) <= connBufBytes {
		t.Fatalf("zone list frame is %d bytes, want more than the %d-byte buffer", len(frame), connBufBytes)
	}
	got, err := NewConn(byteConn{r: bytes.NewReader(frame)}).Recv()
	if err != nil || !reflect.DeepEqual(got, list) {
		t.Fatalf("%d-byte zone list did not round-trip: err %v", len(frame), err)
	}
}

// bytesPerOp is the heap allocated by one call of f, averaged over runs
// calls after one to warm up.
func bytesPerOp(runs int, f func()) int {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// allocSize is what the heap hands out for an n-byte object: n rounded up to
// its size class, or for a large object to whole pages.
func allocSize(n int) int {
	return cap(append([]byte(nil), make([]byte, n)...))
}

// TestCodecCopiesNoFrame guards what the codec may allocate. A sample
// report's binary line, or a zone list in canonical form, costs what it
// keeps: Send encodes it into a pooled buffer and allocates nothing, Recv
// parses it into one slice sized for its samples or records plus the few
// strings they share — in place, or for a zone list longer than the reader or
// a binary line with escapes to undo, in a pooled buffer, so no line is
// copied. A frame encoding/json decodes — here a zone list whose network
// needs an escape — costs no more than encoding/json itself does: no frame is
// allocated to send it and no line copied to decode it. Bytes and counts
// repeat; times do not.
func TestCodecCopiesNoFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	// One P: sync.Pool keeps a buffer per P, and a goroutine moved to another
	// between two calls misses it — a scheduling fact, not a codec cost.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	discard := NewConn(byteConn{w: io.Discard})
	send := func(e Envelope) func() {
		return func() {
			if err := discard.Send(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	recvOf := func(frame []byte) func() {
		c := NewConn(byteConn{r: &repeatReader{data: frame}})
		return func() {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}

	report := benchReport(32)
	if n := testing.AllocsPerRun(runs, send(report)); n != 0 {
		t.Errorf("Send of a 32-sample report allocates %v times, want 0", n)
	}
	if b := bytesPerOp(runs, send(report)); b > 64 {
		t.Errorf("Send of a 32-sample report allocates %d B/op, want none", b)
	}
	frame := encodeFrames(t, report)
	if n := testing.AllocsPerRun(runs, recvOf(frame)); n > 4 {
		t.Errorf("Recv of a 32-sample binary line allocates %v times, want at most 4: the report, one slice, the client id and the samples' device", n)
	}
	slice := 32 * int(unsafe.Sizeof(trace.Sample{}))
	if b := bytesPerOp(runs, recvOf(frame)); b > slice+1024 {
		t.Errorf("Recv of a 32-sample binary line allocates %d B/op, want the %d its samples take and under 1 KiB more", b, slice)
	}
	// A report with escapes to undo is unstuffed into a pooled buffer.
	stuffed := benchReport(32)
	stuffed.SampleReport.Samples[3].Device = "\n\xdb\x80"
	if frame := encodeFrames(t, stuffed); !bytes.Contains(frame, []byte{trace.SlipEsc, trace.SlipEscNL}) {
		t.Fatalf("the report's line %q holds no escaped newline", frame)
	} else if n := testing.AllocsPerRun(runs, recvOf(frame)); n > 7 {
		t.Errorf("Recv of a binary line with escapes allocates %v times, want at most 7: another device string, and no buffer", n)
	}

	list := zoneListOf(600)
	frame = encodeFrames(t, list)
	if len(frame) <= connBufBytes {
		t.Fatalf("the zone list frame is %d bytes; it must not fit the %d-byte read buffer", len(frame), connBufBytes)
	}
	if n := testing.AllocsPerRun(runs, send(list)); n != 0 {
		t.Errorf("Send of a canonical %d-byte zone list allocates %v times, want 0", len(frame), n)
	}
	if n := testing.AllocsPerRun(runs, recvOf(frame)); n > 4 {
		t.Errorf("Recv of a canonical zone list allocates %v times, want at most 4: the reply, one slice, the records' network and metric", n)
	}
	slice = allocSize(600 * int(unsafe.Sizeof(core.Record{})))
	if b := bytesPerOp(runs, recvOf(frame)); b > slice+1024 {
		t.Errorf("Recv of a canonical %d-byte zone list allocates %d B/op, want the %d its records take and under 1 KiB more", len(frame), b, slice)
	}

	list = zoneListOf(100)
	for i := range list.ZoneListReply.Records {
		list.ZoneListReply.Records[i].Key.Net = "Net<B>"
	}
	frame = encodeFrames(t, list)
	if len(frame) >= connBufBytes {
		t.Fatalf("the zone list frame is %d bytes; it must fit the %d-byte read buffer", len(frame), connBufBytes)
	}
	if b := bytesPerOp(runs, send(list)); b >= len(frame)/2 {
		t.Errorf("Send of a %d-byte frame allocates %d B/op, want under half the frame: it should encode into a pooled buffer", len(frame), b)
	}
	line := frame[:len(frame)-1]
	perUnmarshal := bytesPerOp(runs, func() {
		var e Envelope
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
	})
	if b := bytesPerOp(runs, recvOf(frame)); b-perUnmarshal >= len(frame)/2 {
		t.Errorf("Recv of a %d-byte frame allocates %d B/op, json.Unmarshal of its line alone %d: Recv should not copy the line", len(frame), b, perUnmarshal)
	}
}

// TestSendReservesByForm: Send reserves a frame's buffer by the form it
// writes, so the longest binary report — a line of about 2.7 MB — costs one
// buffer of about its own size, not the 24 MB a JSON-sized reserve took, and
// a binary small frame stays inside the pooled buffer a JSON one would.
func TestSendReservesByForm(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector bytes.Buffer.Grow allocates its new buffer twice")
	}
	report := benchReport(maxReportSamples)
	line := encodeFrames(t, report)
	if line[0] != binaryReportLead {
		t.Fatalf("the report went as a line opening %#x, want a binary line", line[0])
	}
	discard := NewConn(byteConn{w: io.Discard})
	if b := bytesPerOp(3, func() {
		if err := discard.Send(report); err != nil {
			t.Fatal(err)
		}
	}); b >= 2*len(line) {
		t.Errorf("Send of a %d-byte binary report line allocates %d B/op, want under twice the line", len(line), b)
	}
	for _, e := range []Envelope{smallFrames()[0], smallFrames()[1], smallFrames()[2]} {
		binaryHint, jsonHint := frameSizeHint(&e, true), frameSizeHint(&e, false)
		if n := len(encodeBinaryFrames(t, e)); n > binaryHint || binaryHint > jsonHint {
			t.Errorf("a %s: a %d-byte binary line reserved %d bytes, JSON %d", e.Type, n, binaryHint, jsonHint)
		}
	}
}
