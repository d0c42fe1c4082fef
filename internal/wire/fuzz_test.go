package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// fuzzConn builds a receive-only Conn over raw bytes, exercising the exact
// framing + decoding path Recv uses in production (ReadLine, the
// size cap, JSON decoding, the missing-type check) without a socket.
func fuzzConn(data []byte) *Conn {
	return &Conn{br: bufio.NewReaderSize(bytes.NewReader(data), connBufBytes)}
}

// FuzzDecode throws arbitrary byte streams at the JSON-line decoder. The
// invariants: Recv never panics, a nil-error result always carries a
// non-empty message type, truncated/garbage/oversized input surfaces as an
// error — ErrMessageTooLarge only for a line over MaxMessageBytes or a sample
// report of more than maxReportSamples samples, and always for the latter —
// the reader always terminates (the stream is finite), and — once the
// whole stream has been read — every envelope still equals a decode of its
// own line's copy (json.Unmarshal's with its times in UTC, or a binary
// line's own): Recv decodes short lines in place, and nothing it returns may
// alias bytes a later read overwrites.
func FuzzDecode(f *testing.F) {
	// Seed corpus: every message type round-tripped through the real
	// encoder, plus hand-picked malformed frames.
	valid := []Envelope{
		{Type: TypeHello, Hello: &Hello{ClientID: "c1", DeviceClass: "laptop"}},
		{Type: TypeHelloAck, HelloAck: &HelloAck{ServerID: "s", TaskIntervalSec: 300}},
		{Type: TypeZoneReport, ZoneReport: &ZoneReport{ClientID: "c1", At: time.Unix(0, 0).UTC()}},
		{Type: TypeTaskList, TaskList: &TaskList{}},
		{Type: TypeSampleReport, SampleReport: &SampleReport{ClientID: "c1"}},
		{Type: TypeSampleAck, SampleAck: &SampleAck{Accepted: 3}},
		{Type: TypeEstimateRequest, EstimateRequest: &EstimateRequest{}},
		{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true}},
		{Type: TypeZoneListRequest, ZoneListRequest: &ZoneListRequest{}},
		{Type: TypeZoneListReply, ZoneListReply: &ZoneListReply{}},
		{Type: TypeError, Error: &ErrorMsg{Message: "boom"}},
		{Type: TypeZoneReport, Via: &Via{Gateway: "gw", Shard: "madison"}},
	}
	for _, e := range valid {
		line, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"type":""}` + "\n"))
	f.Add([]byte(`{"type":"hello"`))                                   // truncated: no newline, no close brace
	f.Add([]byte(`{"type":"hello","hello":{"client_id":123}}` + "\n")) // wrong field type
	f.Add([]byte("not json at all\n"))
	f.Add([]byte("\xff\xfe{\"type\":\"hello\"}\n"))
	f.Add([]byte(`{"type":"hello"}` + "\n" + `{"type":"error","error":{"message":"x"}}` + "\n"))
	f.Add([]byte(`{"type":"` + strings.Repeat("a", 1<<16) + `"}` + "\n"))
	// Both line paths in one stream: a frame longer than the reader buffer
	// (gathered chunk by chunk in a pooled buffer) between two it holds whole
	// (decoded in place), and one that nearly fills the buffer before a short
	// one, which so straddles the refill.
	short := encodeFrames(f, Envelope{Type: TypeEstimateReply, EstimateReply: &EstimateReply{Found: true, Sketch: []byte("sketch bytes")}})
	long := encodeFrames(f, zoneListOf(600))
	f.Add(slices.Concat(short, long, short))
	f.Add(slices.Concat(encodeFrames(f, errorFrameOf(f, connBufBytes-10)), short))
	// Sample reports, binary and JSON: their samples' strings are copied out
	// of a buffer the frames behind them overwrite (a binary line's shared
	// between samples).
	relayed := benchReport(2)
	relayed.Via = &Via{Gateway: "gw", Shard: "madison"}
	f.Add(slices.Concat(encodeFrames(f, benchReport(3)), short, encodeFrames(f, relayed), long, encodeFrames(f, benchReport(1))))
	f.Add(slices.Concat(jsonFrame(f, benchReport(3)), short, jsonFrame(f, relayed), long, jsonFrame(f, benchReport(1))))
	// A client's round trip in binary lines, direct and relayed, between
	// frames that overwrite the buffer they were read from.
	for _, e := range smallFrames()[:3] {
		relayed := e
		relayed.Via = &Via{Gateway: "gw", Shard: "madison"}
		f.Add(slices.Concat(encodeBinaryFrames(f, e), short, encodeBinaryFrames(f, relayed), long))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzConn(data)
		lines := bytes.SplitAfter(data, []byte("\n"))
		var got []Envelope
		for {
			e, err := c.Recv()
			if err != nil {
				// Any error is acceptable; a panic is not. The size cap and
				// the report ceiling must be reported as the sentinel so
				// peers can answer with a protocol error, and nothing else
				// may be.
				line := lines[len(got)] // the line Recv failed on
				over := bytes.HasSuffix(line, []byte("\n")) && reportOverCeiling(line[:len(line)-1])
				switch {
				case over && !errors.Is(err, ErrMessageTooLarge):
					t.Fatalf("a report of more than %d samples refused with %v, want ErrMessageTooLarge", maxReportSamples, err)
				case !over && errors.Is(err, ErrMessageTooLarge) && len(data) <= MaxMessageBytes:
					t.Fatalf("size-cap error on %d-byte input under the %d cap", len(data), MaxMessageBytes)
				}
				break
			}
			if e.Type == "" {
				t.Fatal("Recv returned nil error with an empty message type")
			}
			if got = append(got, e); len(got) > len(data) {
				t.Fatal("decoder yielded more messages than input bytes")
			}
		}
		for i, e := range got {
			var want Envelope
			var err error
			if line := bytes.Clone(lines[i]); codecByLead(line[0]) != nil {
				want, err = fuzzConn(line).Recv() // json.Unmarshal cannot read it; checkBinaryLine holds it to JSON
			} else {
				err = json.Unmarshal(line, &want)
				want = inUTC(want)
			}
			if err != nil || !reflect.DeepEqual(e, want) {
				t.Fatalf("envelope %d differs from a decode of its own line after the stream was read (err %v):\n got  %+v\n want %+v", i, err, e, want)
			}
		}
	})
}

// reportOverCeiling reports whether line, a wire line without its '\n', is a
// sample report that holds more than maxReportSamples samples by its own
// count — the binary form's, read as parseBinaryReport reads it up to there,
// or the JSON array's elements — which Recv refuses as too large however few
// bytes it takes.
func reportOverCeiling(line []byte) bool {
	if len(line) > 0 && line[0] == binaryReportLead {
		body, ok := trace.Unstuff(nil, line[1:])
		if !ok || len(body) == 0 || body[0] > 1 {
			return false
		}
		r := trace.BinReader{B: body[1:]}
		if body[0] == 1 {
			r.Str() // gateway
			r.Str() // shard
		}
		r.Str() // client id
		n := r.Uvarint()
		return !r.Bad && n > maxReportSamples
	}
	var probe struct {
		SampleReport *struct {
			Samples []json.RawMessage `json:"samples"`
		} `json:"sample_report"`
	}
	if !json.Valid(line) {
		return false
	}
	_ = json.Unmarshal(line, &probe) // a field of another type is beside the point: the count is read
	return probe.SampleReport != nil && len(probe.SampleReport.Samples) > maxReportSamples
}

// TestRecvOversizedLine pins the size-cap sentinel on a single line larger
// than MaxMessageBytes (kept out of the fuzz corpus for speed).
func TestRecvOversizedLine(t *testing.T) {
	huge := make([]byte, MaxMessageBytes+2)
	for i := range huge {
		huge[i] = 'a'
	}
	huge[len(huge)-1] = '\n'
	if _, err := fuzzConn(huge).Recv(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
}
