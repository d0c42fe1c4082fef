package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The binary sample report (appendBinaryReport, parseBinaryReport,
// trace.AppendReportBinary, trace.ParseReportBinary) is held here to its
// layout, spelled out by hand, and to its decoder's contract: a line the
// encoder would not write is refused, and one it would is read back to what
// json.Unmarshal makes of the report's JSON. TestSendBytesMatchJSON holds
// Send's lines to the JSON oracle over the drawn corpus.
//
// Mutants that must fail this package's tests (each did, by hand, in a
// copy): the decoder accepting a time, loc, client, device or speed spelled
// out that equals the sample before's, a known name spelled out, an index
// past its list, bytes after the last sample, an unknown flag bit, a count of
// zero, a via tag of 2, or a count left unchecked against the bytes behind it
// or against the ceiling; the decoder leaving a flagged time unset; a line
// with escapes decoded without unstuffing; the encoder skipping the zone
// offset check or the client id's or the via's UTF-8 check; Send skipping the
// ceiling.

// appendBinaryReport and parseBinaryReport are the sample report's binary
// line, out and in.
func appendBinaryReport(b []byte, e *Envelope) ([]byte, bool) {
	return appendBinaryLine(b, codecOf(TypeSampleReport), e)
}

func parseBinaryReport(stuffed []byte) (Envelope, error) {
	return parseBinaryLine(codecOf(TypeSampleReport), stuffed)
}

// Pieces of a binary report body, as its layout reads.
func uv(v uint64) []byte    { return binary.AppendUvarint(nil, v) }
func sv(v int64) []byte     { return binary.AppendVarint(nil, v) }
func bstr(s string) []byte  { return append(uv(uint64(len(s))), s...) }
func bf64(f float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }

// binaryLine is a sample report's line around a body, binaryLineOf any
// binary line's.
func binaryLine(parts ...[]byte) []byte { return binaryLineOf(binaryReportLead, parts...) }

func binaryLineOf(lead byte, parts ...[]byte) []byte {
	return append(trace.Stuff(append([]byte{lead}, slices.Concat(parts...)...), 1), '\n')
}

// The flag bits, as the layout names them.
const (
	fTime, fLoc, fClient, fDevice, fSpeed, fFailed = 1, 2, 4, 8, 16, 32
)

func TestBinaryReportLayout(t *testing.T) {
	t0 := time.Date(2010, 9, 6, 9, 0, 0, 0, time.UTC)
	zeroSec := time.Time{}.Unix()
	loc := geo.Point{Lat: 43.07, Lon: -89.4}
	report := Envelope{Type: TypeSampleReport, SampleReport: &SampleReport{ClientID: "c", Samples: []trace.Sample{
		{Time: t0, Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 900.5, ClientID: "c", Device: "phone"},
		{Time: t0.Add(1500 * time.Millisecond), Loc: loc, Network: radio.NetB, Metric: trace.MetricUDPKbps, Value: 901,
			ClientID: "c", Device: "phone", SpeedKmh: 30, Failed: true},
	}}}
	netB, udp := uv(2), uv(2) // 1 + index: radio.AllNetworks[1], trace.AllMetrics[1]
	first := [][]byte{{fClient | fSpeed}, sv(t0.Unix() - zeroSec), uv(0), bf64(loc.Lat), bf64(loc.Lon), netB, udp, bf64(900.5), bstr("phone")}
	second := [][]byte{{fLoc | fClient | fDevice | fFailed}, sv(1), uv(5e8), netB, udp, bf64(901), bf64(30)}
	head := [][]byte{{0}, bstr("c"), uv(2)}
	spell := func(head, first, second [][]byte, tail ...[]byte) []byte {
		return binaryLine(slices.Concat(head, first, second, tail)...)
	}

	want := spell(head, first, second)
	if got := encodeFrames(t, report); !bytes.Equal(got, want) {
		t.Fatalf("Send wrote\n%q\nthe layout spells\n%q", got, want)
	}
	relayed := report
	relayed.Via = &Via{Gateway: "gw", Shard: "madison"}
	if got, want := encodeFrames(t, relayed), spell(with(head, 0, []byte{1}, bstr("gw"), bstr("madison")), first, second); !bytes.Equal(got, want) {
		t.Fatalf("Send wrote\n%q\nthe layout spells\n%q", got, want)
	}
	oracle := func(e Envelope) Envelope {
		var o Envelope
		if err := json.Unmarshal(jsonFrame(t, e), &o); err != nil {
			t.Fatal(err)
		}
		return o
	}
	for name, tc := range map[string]struct {
		line []byte
		want Envelope
	}{
		"as sent": {want, oracle(report)},
		"relayed": {encodeFrames(t, relayed), oracle(relayed)},
		"a speed of -0": {spell(head, first, with(second, 6, bf64(math.Copysign(0, -1)))), func() Envelope {
			e := oracle(report)
			e.SampleReport.Samples[1].SpeedKmh = math.Copysign(0, -1)
			return e
		}()},
	} {
		got, err := NewConn(byteConn{r: bytes.NewReader(tc.line)}).Recv()
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Recv %+v, %v\nwant %+v", name, got, err, tc.want)
		}
	}

	maxSec := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	for name, line := range map[string][]byte{
		"no body":                      {binaryReportLead, '\n'},
		"a via tag of 2":               spell(with(head, 0, []byte{2}), first, second),
		"a via cut short":              spell(with(head, 0, []byte{1}, bstr("gw")), first, second),
		"a client id of invalid UTF-8": spell(with(head, 1, bstr("c\xff")), first, second),
		"a bad escape":                 append(want[:len(want)-1:len(want)-1], trace.SlipEsc, 0, '\n'),
		"a dangling escape":            append(want[:len(want)-1:len(want)-1], trace.SlipEsc, '\n'),
		"no samples":                   binaryLine([]byte{0}, bstr("c"), uv(0)),
		"one sample too few":           spell(with(head, 2, uv(3)), first, second),
		"one sample too many":          spell(with(head, 2, uv(1)), first, second),
		"a byte behind":                spell(head, first, second, []byte{0}),
		"an overlong count":            spell(with(head, 2, []byte{0x82, 0x00}), first, second),
		"flag bit 6":                   spell(head, with(first, 0, []byte{fClient | fSpeed | 64}), second),
		"flag bit 7":                   spell(head, first, with(second, 0, []byte{fLoc | fClient | fDevice | fFailed | 128})),
		"a time spelled out the same":  spell(head, first, with(with(second, 1, sv(0)), 2, uv(0))),
		"a second of 1e9 ns":           spell(head, first, with(second, 2, uv(1e9))),
		"an overlong ns":               spell(head, first, with(second, 2, []byte{0x80, 0x00})),
		"year 10000":                   spell(head, first, with(second, 1, sv(maxSec+1-t0.Unix()))),
		"year -1":                      spell(head, with(first, 1, sv(-62167219201-zeroSec)), second),
		"a delta that wraps":           spell(head, first, with(second, 1, sv(math.MaxInt64))),
		"a loc spelled out the same": spell(head, first, slices.Concat(
			[][]byte{{fClient | fDevice | fFailed}}, second[1:3], [][]byte{bf64(loc.Lat), bf64(loc.Lon)}, second[3:])),
		"a NaN lat":         spell(head, with(first, 3, bf64(math.NaN())), second),
		"an infinite value": spell(head, first, with(second, 5, bf64(math.Inf(1)))),
		"a client spelled out the same": spell(head, first, slices.Concat(
			[][]byte{{fLoc | fDevice | fFailed}}, second[1:6], [][]byte{bstr("c")}, second[6:])),
		"a device spelled out the same": spell(head, first, slices.Concat(
			[][]byte{{fLoc | fClient | fFailed}}, second[1:6], [][]byte{bstr("phone")}, second[6:])),
		"a speed spelled out the same":  spell(head, first, with(second, 6, bf64(0))),
		"a known network spelled out":   spell(head, with(first, 5, uv(0), bstr(string(radio.NetB))), second),
		"a network index past the list": spell(head, with(first, 5, uv(uint64(len(radio.AllNetworks)+1))), second),
		"a metric index past the list":  spell(head, first, with(second, 4, uv(uint64(len(trace.AllMetrics)+1)))),
		"a metric of invalid UTF-8":     spell(head, first, with(second, 4, uv(0), bstr("m\xc3"))),
		"a device of invalid UTF-8":     spell(head, with(first, 8, bstr("ph\xffone")), second),
	} {
		if got, err := NewConn(byteConn{r: bytes.NewReader(line)}).Recv(); err == nil || errors.Is(err, ErrMessageTooLarge) {
			t.Errorf("%s: Recv of %q returned %+v, %v; want a decode error", name, line, got, err)
		}
	}
	// The fix-ups the table makes, made right, are taken: the table's
	// refusals are the edits', not the helpers'.
	for name, line := range map[string][]byte{
		"the second sample's own time": spell(head, first, with(with(second, 1, sv(0)), 2, uv(1))),
		"a loc of its own": spell(head, first, slices.Concat(
			[][]byte{{fClient | fDevice | fFailed}}, second[1:3], [][]byte{bf64(loc.Lat), bf64(1)}, second[3:])),
		"a client of its own": spell(head, first, slices.Concat(
			[][]byte{{fLoc | fDevice | fFailed}}, second[1:6], [][]byte{bstr("d")}, second[6:])),
		"an unknown network spelled out": spell(head, with(first, 5, uv(0), bstr("NetZ")), second),
		"year 9999":                      spell(head, first, with(second, 1, sv(maxSec-t0.Unix()))),
	} {
		if _, err := NewConn(byteConn{r: bytes.NewReader(line)}).Recv(); err != nil {
			t.Errorf("%s: Recv of %q: %v", name, line, err)
		}
	}

	// A count is checked before the samples are allocated: against the
	// ceiling, a refusal as too large, and against the bytes left to spell
	// that many samples (11 bytes at the least), a decode error.
	for name, tc := range map[string]struct {
		line     []byte
		tooLarge bool
	}{
		"the ceiling, one over":   {spell(with(head, 2, uv(uint64(maxReportSamples)+1)), first, second), true},
		"a count of 2^64-1":       {spell(with(head, 2, uv(math.MaxUint64)), first, second), true},
		"more than the bytes pay": {spell(with(head, 2, uv(uint64(len(want)))), first, second), false},
	} {
		body := tc.line[1 : len(tc.line)-1]
		_, err := parseBinaryReport(body)
		if errors.Is(err, ErrMessageTooLarge) != tc.tooLarge || err == nil {
			t.Errorf("%s: err %v, want too large %v", name, err, tc.tooLarge)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = parseBinaryReport(body) }); n != 0 {
			t.Errorf("%s: refusing the line allocates %v times", name, n)
		}
	}
}

// checkBinaryLine holds one binary line to the decoder's contract: Recv does
// not panic, and a line it accepts decodes to what json.Unmarshal makes of
// json.Marshal of the envelope, holds no byte of the line, and re-encodes —
// to a peer that reads binary replies — to the line byte for byte. It reports
// whether Recv accepted the line.
func checkBinaryLine(t testing.TB, line []byte) bool {
	t.Helper()
	got, err := fuzzConn(line).Recv()
	if err != nil {
		return false
	}
	scratch := bytes.Clone(line)
	direct, err := parseBinaryLine(codecByLead(line[0]), scratch[1:len(scratch)-1])
	for i := range scratch {
		scratch[i] = 'x'
	}
	if err != nil || !reflect.DeepEqual(direct, got) {
		t.Fatalf("line %q: the parsed envelope changed with the line's bytes:\n got  %+v, %v\n want %+v", line, direct, err, got)
	}
	var want Envelope
	if err := json.Unmarshal(jsonFrame(t, got), &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\nRecv   %+v\noracle %+v, %v", line, got, want, err)
	}
	if again := encodeBinaryFrames(t, got); !bytes.Equal(again, line) {
		t.Fatalf("line %q decodes to %+v, which re-encodes to %q", line, got, again)
	}
	return true
}

// FuzzBinarySampleReportDecode feeds arbitrary bytes to the binary report
// decoder, two ways: as they stand between the lead byte and the newline,
// and — so that the fuzzer need not find the stuffing — as a body the
// harness stuffs. Either way checkBinaryLine holds.
func FuzzBinarySampleReportDecode(f *testing.F) {
	r := rng.NewNamed(35, "binary-report-seeds")
	for i := 0; i < 16; i++ {
		e := drawReport(r, i%3 != 0)
		// Short seeds, in UTC so that most go binary.
		samples := slices.Clone(e.SampleReport.Samples[:min(3, len(e.SampleReport.Samples))])
		for j := range samples {
			samples[j].Time = samples[j].Time.UTC()
		}
		e.SampleReport = &SampleReport{ClientID: e.SampleReport.ClientID, Samples: samples}
		line, ok := appendBinaryReport(nil, &e)
		if !ok {
			continue
		}
		f.Add(line[1:len(line)-1], false)
		body, _ := trace.Unstuff(nil, line[1:len(line)-1])
		f.Add(body, true)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{trace.SlipEsc}, false)
	f.Add([]byte{1, 0, 0, 0, 1}, true)
	f.Add(slices.Concat([]byte{0}, bstr("c"), uv(1), []byte{fLoc | fClient | fDevice | fSpeed}, sv(1), uv(0), uv(0), bstr("NetZ"), uv(7), bf64(1)), true)
	f.Fuzz(func(t *testing.T, b []byte, stuff bool) {
		if stuff {
			checkBinaryLine(t, append(trace.Stuff(append([]byte{binaryReportLead}, b...), 1), '\n'))
			return
		}
		b, _, _ = bytes.Cut(b, []byte("\n"))
		checkBinaryLine(t, append(append([]byte{binaryReportLead}, b...), '\n'))
	})
}
