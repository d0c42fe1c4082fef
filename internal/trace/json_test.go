package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// drawSamples draws n samples the encoder takes (NaN and ±Inf have no JSON
// form), all plain or all awkward.
func drawSamples(r *rng.Rand, n int, plain bool) []trace.Sample {
	draw := tracetest.Sample
	if plain {
		draw = tracetest.PlainSample
	}
	var out []trace.Sample
	for len(out) < n {
		s := draw(r)
		if _, err := trace.AppendSampleJSON(nil, s); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// TestSampleEncoderMatchesJSON: AppendSampleJSON writes json.Marshal's bytes
// and refuses what it refuses, leaving the buffer as it was.
func TestSampleEncoderMatchesJSON(t *testing.T) {
	r := rng.NewNamed(24, "sample-encoder")
	for i := 0; i < 5000; i++ {
		s := tracetest.Sample(r)
		want, werr := json.Marshal(s)
		got, gerr := trace.AppendSampleJSON([]byte("in front "), s)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%+v: encoder err %v, json.Marshal err %v", s, gerr, werr)
		}
		if werr != nil {
			want = nil
		}
		if string(got) != "in front "+string(want) {
			t.Fatalf("%+v:\nencoder %q\n oracle %q", s, got, want)
		}
	}
}

// checkSamplesParser holds ParseSamplesJSON to json.Unmarshal on one input:
// whatever it accepts decodes to the same slice, sized exactly, holding no
// pointer into the input; canonical input it must accept whole.
func checkSamplesParser(t *testing.T, in []byte, clientID string, canonical bool) {
	t.Helper()
	shown := string(in)
	var want []trace.Sample
	werr := json.Unmarshal(bytes.Clone(in), &want)
	c := trace.Canon{B: in}
	got := trace.ParseSamplesJSON(&c, clientID)
	accepted, rest := !c.Declined, len(c.B)
	for i := range in {
		in[i] = 'x'
	}
	if canonical && (!accepted || rest != 0) {
		t.Fatalf("canonical input declined (or %d bytes left over): %q", rest, shown)
	}
	if !accepted || rest != 0 {
		return // a caller hands what is declined, or followed by anything, to encoding/json
	}
	if werr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\nparsed %+v\noracle %+v, err %v", shown, got, want, werr)
	}
	if cap(got) != len(got) {
		t.Fatalf("input %q: %d samples in a slice of capacity %d", shown, len(got), cap(got))
	}
}

// TestSamplesParserMatchesJSON is the decoder's contract at the level of the
// sample array (internal/wire and internal/store hold it again around their
// own framing): accepted ⇒ reflect.DeepEqual to json.Unmarshal's result, and
// every array the encoder writes from plain-ASCII strings is accepted.
// Mutants of the parser that must fail here or in those two (each did, by
// hand): no number-grammar check before ParseFloat; a string with a backslash
// taken raw; a string aliased to the input instead of copied; "failed":false
// accepted; "device":"" accepted; the capacity taken from the count of
// sample openings without the cap by length (TestSamplesCapacityIsPaidFor).
func TestSamplesParserMatchesJSON(t *testing.T) {
	r := rng.NewNamed(24, "samples-parser")
	for i := 0; i < 3000; i++ {
		n, plain := 1+r.Intn(8), r.Bool(0.6)
		if r.Bool(0.1) {
			n = 1 + r.Intn(300)
		}
		samples := drawSamples(r, n, plain)
		in, err := json.Marshal(samples)
		if err != nil {
			t.Fatal(err)
		}
		checkSamplesParser(t, in, samples[r.Intn(n)].ClientID, plain)
	}
	for _, in := range []string{
		``, `[`, `[]`, `null`, `[null]`, `[{}]`, `[{"t":"`, `[,]`,
	} {
		checkSamplesParser(t, []byte(in), "", false)
	}
}

// TestSamplesShareRepeatedStrings: a report's samples mostly repeat one
// network, metric, client and device; each is allocated once and shared down
// the slice, the client with the report's own id.
func TestSamplesShareRepeatedStrings(t *testing.T) {
	r := rng.New(24)
	samples := drawSamples(r, 6, true)
	for i := range samples {
		samples[i].Network, samples[i].Metric, samples[i].ClientID, samples[i].Device = "NetB", "udp_kbps", "bus-17", "phone"
	}
	samples[3].Metric, samples[4].Device = "rtt_ms", ""
	in, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Sample
	if err := json.Unmarshal(in, &want); err != nil {
		t.Fatal(err)
	}
	id := strings.Clone("bus-17")
	c := trace.Canon{B: in}
	got := trace.ParseSamplesJSON(&c, id)
	if c.Declined || !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v (declined %v), want %+v", got, c.Declined, want)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for i := range got {
		if !same(got[i].ClientID, id) || !same(string(got[i].Network), string(got[0].Network)) {
			t.Errorf("sample %d holds its own copy of the client id or the network", i)
		}
	}
	if !same(string(got[1].Metric), string(got[2].Metric)) || same(string(got[3].Metric), string(got[2].Metric)) ||
		!same(got[2].Device, got[3].Device) || got[5].Device != "phone" {
		t.Errorf("metric or device not shared with the sample before: %+v", got)
	}
}

// TestSamplesCapacityIsPaidFor: the slice is sized from a count of sample
// openings in the input, which a hostile input can make one per six bytes —
// 128 B of slice each. The count is capped by what the input's length could
// spell, so the allocation stays within a small multiple of the input.
func TestSamplesCapacityIsPaidFor(t *testing.T) {
	in := []byte("[" + strings.Repeat(`{"t":"`, 10000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := trace.Canon{B: in}
	got := trace.ParseSamplesJSON(&c, "")
	runtime.ReadMemStats(&after)
	if !c.Declined || got != nil {
		t.Fatalf("a run of sample openings parsed as %d samples", len(got))
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*uint64(len(in)) {
		t.Errorf("a %d-byte input made the parser allocate %d bytes", len(in), spent)
	}
}
