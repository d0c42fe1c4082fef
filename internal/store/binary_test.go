package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// frameBinary frames body — an LSN and a sample's binary form, or anything
// else — the way a sample line frames it: lead byte, stuffing, CRC, newline.
func frameBinary(body []byte) []byte { return frameLead(sampleLead, body) }

// frameReport frames body the way a report line frames it.
func frameReport(body []byte) []byte { return frameLead(reportLead, body) }

func frameLead(lead byte, body []byte) []byte {
	buf := append([]byte{lead}, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(trace.Stuff(buf, 1), '\n')
}

// sampleLineCarries is the rule the stores that wrote sample lines chose
// one by: a time at zone offset 0 in years 0–9999, finite floats and strings
// of valid UTF-8. They wrote the rest as JSON.
func sampleLineCarries(smp trace.Sample) bool {
	_, off := smp.Time.Zone()
	for _, f := range []float64{smp.Loc.Lat, smp.Loc.Lon, smp.Value, smp.SpeedKmh} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	for _, s := range []string{string(smp.Network), string(smp.Metric), smp.ClientID, smp.Device} {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return off == 0 && smp.Time.Year() >= 0 && smp.Time.Year() <= 9999
}

// sampleBody is the body of the sample line of (lsn, smp), which the sample
// line must carry.
func sampleBody(tb testing.TB, lsn uint64, smp trace.Sample) []byte {
	tb.Helper()
	if !sampleLineCarries(smp) {
		tb.Fatalf("the sample line does not carry %+v", smp)
	}
	return tracetest.AppendSampleBinary(binary.AppendUvarint(nil, lsn), smp)
}

// appendSampleLine is the line the store wrote for a sample before report
// lines: a sample line where the binary form carries the sample, JSON
// otherwise. Old segments are made of its lines.
func appendSampleLine(buf []byte, lsn uint64, smp trace.Sample) ([]byte, error) {
	if !sampleLineCarries(smp) {
		return appendJSONLine(buf, lsn, smp)
	}
	return append(buf, frameBinary(tracetest.AppendSampleBinary(binary.AppendUvarint(nil, lsn), smp))...), nil
}

// TestBinaryRecordRefusesMalformed holds the binary decoder to failing
// closed: every line below is refused by ParseRecordLine and by AppendAt,
// each without allocating — the one length a binary line spells is a
// string's, and nothing is sized by it.
func TestBinaryRecordRefusesMalformed(t *testing.T) {
	smp := testSample(3)
	smp.Device = "phone"
	good := frameBinary(sampleBody(t, 4, smp))
	if got, lsn, ok := parseOne(good); !ok || lsn != 4 || !sampleEqual(got, smp) {
		t.Fatalf("the base line reads %d %+v, ok %v", lsn, got, ok)
	}
	// head is the body up to the first string (net); what follows it is
	// spliced per case.
	head := sampleBody(t, 4, trace.Sample{Time: smp.Time, Loc: smp.Loc, Value: smp.Value})
	head = head[:len(head)-4] // the four empty strings
	strs := func(lens ...uint64) []byte {
		b := append([]byte(nil), head...)
		for _, n := range lens {
			b = binary.AppendUvarint(b, n)
		}
		return append(b, "NetB"...)
	}
	body := func(edit func(b []byte) []byte) []byte { return edit(sampleBody(t, 4, smp)) }
	floatAt := len(binary.AppendUvarint(nil, 4)) + len(binary.AppendVarint(nil, smp.Time.Unix())) + 1
	setFloat := func(f float64) []byte {
		return body(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[floatAt:], math.Float64bits(f)); return b })
	}
	withTime := func(sec int64, nsec uint64) []byte {
		b := binary.AppendUvarint(nil, 4)
		b = binary.AppendVarint(b, sec)
		b = binary.AppendUvarint(b, nsec)
		return append(b, sampleBody(t, 4, smp)[floatAt:]...)
	}
	withClient := func(client string) []byte {
		s := smp
		s.ClientID = "\x00"
		b := sampleBody(t, 4, s)
		i := bytes.LastIndex(b, []byte("\x01\x00"))
		return append(append(append(b[:i:i], 1), client...), b[i+2:]...)
	}
	flagAt := floatAt + 32
	var scratch Scratch // the refusals below are told to allocate nothing
	for _, tc := range []struct {
		name string
		line []byte
	}{
		{"a string length of 2^63", frameBinary(strs(1 << 63))},
		{"a string length of 2^64-1", frameBinary(strs(math.MaxUint64))},
		{"a string length one past the line", frameBinary(strs(5))},
		{"a string length of 1 MiB in a short line", frameBinary(strs(1 << 20))},
		{"an overlong LSN", frameBinary(append([]byte{0x84, 0x00}, sampleBody(t, 4, smp)[1:]...))},
		{"an overlong string length", frameBinary(append(append([]byte(nil), head...), 0x84, 0x00, 'N', 'e', 't', 'B', 0, 0, 0))},
		{"an overlong nanosecond count", frameBinary(body(func(b []byte) []byte {
			return append(append(b[:floatAt-1:floatAt-1], 0x80, 0x00), b[floatAt:]...)
		}))},
		{"an eleven-byte LSN", frameBinary(append(bytes.Repeat([]byte{0xff}, 10), 0x01))},
		{"a tenth LSN byte over 1", frameBinary(append(bytes.Repeat([]byte{0xff}, 9), 0x02))},
		{"a truncated LSN", frameBinary([]byte{0x84})},
		{"a truncated string length", frameBinary(append(append([]byte(nil), head...), 0x84))},
		{"a truncated float", frameBinary(sampleBody(t, 4, smp)[:floatAt+5])},
		{"nothing but the lead byte", []byte{sampleLead, '\n'}},
		{"nothing but an LSN", frameBinary([]byte{4})},
		{"a dangling escape", append(good[:len(good)-1:len(good)-1], trace.SlipEsc, '\n')},
		{"an unknown escape", bytes.Replace(good, []byte("NetB"), []byte{'N', trace.SlipEsc, 0x00, 'B'}, 1)},
		{"a raw newline inside", bytes.Replace(good, []byte("NetB"), []byte("Ne\nB"), 1)},
		{"a bad CRC", body(func(b []byte) []byte { line := frameBinary(b); line[len(line)-2] ^= 1; return line })},
		{"a flipped sample byte", bytes.Replace(good, []byte("udp_kbps"), []byte("udp_kbpz"), 1)},
		{"trailing bytes", frameBinary(append(sampleBody(t, 4, smp), 0))},
		{"no newline", good[:len(good)-1]},
		{"a nanosecond count of 1e9", frameBinary(withTime(smp.Time.Unix(), 1e9))},
		{"year 10000", frameBinary(withTime(253402300800, 0))},
		{"year -1", frameBinary(withTime(-62167219201, 0))},
		{"an unknown flag bit", frameBinary(body(func(b []byte) []byte { b[flagAt] |= 2; return b }))},
		{"NaN", frameBinary(setFloat(math.NaN()))},
		{"+Inf", frameBinary(setFloat(math.Inf(1)))},
		{"-Inf", frameBinary(setFloat(math.Inf(-1)))},
		{"invalid UTF-8", frameBinary(withClient("\xff"))},
		{"a line past the cap", frameBinary(sampleBody(t, 4, trace.Sample{ClientID: strings.Repeat("x", MaxLineBytes)}))},
	} {
		if _, _, ok := ParseRecordLine(nil, tc.line, nil); ok {
			t.Errorf("%s: ParseRecordLine took %q", tc.name, tc.line)
		}
		if _, _, ok := checkLine(&scratch.body, tc.line); ok {
			t.Errorf("%s: the record check took %q", tc.name, tc.line)
		}
		if raceEnabled {
			continue // the race detector allocates on its own
		}
		if allocs := testing.AllocsPerRun(10, func() {
			ParseRecordLine(nil, tc.line, &scratch)
			checkLine(&scratch.body, tc.line)
		}); allocs != 0 {
			t.Errorf("%s: refusing the line allocates %v times", tc.name, allocs)
		}
	}
	// The helpers above build the lines they mean to: the edits they make to
	// the base record, made right, are taken.
	for name, line := range map[string][]byte{
		"floats":  frameBinary(setFloat(1.5)),
		"times":   frameBinary(withTime(smp.Time.Unix(), 999999999)),
		"clients": frameBinary(withClient("x")),
		"flags":   frameBinary(body(func(b []byte) []byte { b[flagAt] |= 1; return b })),
	} {
		_, _, holds := checkLine(&scratch.body, line)
		if _, _, ok := ParseRecordLine(nil, line, nil); !ok || !holds {
			t.Errorf("the %s helper builds a line that is refused: %q", name, line)
		}
	}
}

// checkLineAgrees holds the record check to the decoder on one line of any
// form: checkLine takes exactly what ParseRecordLine takes, and reads off it
// the LSNs it decodes to. It returns the decode.
func checkLineAgrees(t *testing.T, line []byte) (first uint64, smps []trace.Sample, ok bool) {
	t.Helper()
	first, smps, ok = ParseRecordLine(nil, line, nil)
	var scratch []byte
	cfirst, clast, cok := checkLine(&scratch, line)
	if cok != ok {
		t.Fatalf("line %q: ParseRecordLine ok %v, checkLine ok %v", line, ok, cok)
	}
	if last := first + uint64(len(smps)) - 1; ok && (cfirst != first || clast != last) {
		t.Fatalf("line %q: decoded as LSNs %d-%d, checked as %d-%d", line, first, last, cfirst, clast)
	}
	return first, smps, ok
}

// checkBinaryDecode holds one binary line to the decoder's contract: it does
// not panic, the record check agrees with it (checkLineAgrees), and an
// accepted line is what the record it decodes to re-encodes to, byte for
// byte.
func checkBinaryDecode(t *testing.T, line []byte) {
	t.Helper()
	first, smps, ok := checkLineAgrees(t, line)
	if !ok {
		return
	}
	var scratch, again []byte
	var err error
	if line[0] == sampleLead {
		again, err = appendSampleLine(nil, first, smps[0])
	} else {
		_, _, rest, _ := binaryLine(&scratch, line)
		clientID, _, perr := trace.ParseReportBinary(nil, rest, len(rest))
		if perr != nil {
			t.Fatalf("line %q: decoded, but its report does not: %v", line, perr)
		}
		again, err = appendReportLine(nil, first, clientID, smps)
	}
	if err != nil || !bytes.Equal(again, line) {
		t.Fatalf("line %q decodes to %d %+v, which re-encodes to %q (err %v)", line, first, smps, again, err)
	}
}

// FuzzBinaryRecordDecode feeds arbitrary bytes to the binary decoder, two
// ways: as they stand between a binary line's lead byte and its newline, and
// — so that the fuzzer gets past the CRC — as a body the harness stuffs and
// closes with a good CRC. report picks the lead byte, a report line's or a
// sample line's. Either way checkBinaryDecode holds.
func FuzzBinaryRecordDecode(f *testing.F) {
	r := rng.NewNamed(25, "binary-decode-seeds")
	add := func(line []byte) {
		report := line[0] == reportLead
		f.Add(line[1:len(line)-1], false, report)
		if first, _, rest, ok := binaryLine(new([]byte), line); ok {
			f.Add(append(binary.AppendUvarint(nil, first), rest...), true, report)
		}
	}
	for i := 0; i < 8; i++ {
		smp := tracetest.PlainSample(r)
		lsn := r.Uint64() >> uint(r.Intn(64))
		if line, err := appendSampleLine(nil, lsn, smp); err == nil && line[0] == sampleLead {
			add(line)
		}
		if line, err := appendRecordLine(nil, lsn, smp); err == nil && line[0] == reportLead {
			add(line) // a report of one
		}
	}
	bench, err := appendReportLine(nil, 1001, "bench-client-0042", benchSamples(50))
	if err != nil || bench[0] != reportLead {
		f.Fatalf("a bench-shaped report: %q, err %v", bench, err)
	}
	add(bench)
	smp := testSample(1)
	smp.Device, smp.Failed = "ph\none\xdb", true
	line, _ := appendSampleLine(nil, 10, smp) // a newline and an escape byte to stuff
	add(line)
	line, _ = appendRecordLine(nil, 10, smp)
	add(line)
	for _, report := range []bool{false, true} {
		f.Add([]byte{}, false, report)
		f.Add([]byte{trace.SlipEsc}, false, report)
		f.Add([]byte{0x84, 0x00}, true, report)
		f.Add(bytes.Repeat([]byte{0xff}, 12), true, report)
	}
	f.Fuzz(func(t *testing.T, b []byte, framed, report bool) {
		lead := byte(sampleLead)
		if report {
			lead = reportLead
		}
		if framed {
			checkBinaryDecode(t, frameLead(lead, b))
			return
		}
		checkBinaryDecode(t, append(append([]byte{lead}, b...), '\n'))
	})
}

// benchSamples is a report of n samples shaped like the benchmark's.
func benchSamples(n int) []trace.Sample {
	_, samples := tracetest.BenchReport(rng.NewNamed(uint64(n), "bench-report"), n)
	return samples
}

// TestDamagedBinaryLSNCountsCorrupt: a varint damaged in place is another
// varint, so a binary line whose LSN is hit can read as an earlier record's —
// which the cursor passes over uncounted — unless its LSN is believed only
// under a good CRC. Recovery must count it corrupt.
func TestDamagedBinaryLSNCountsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, st, 0, 200)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	hit := lines[149] // LSN 150, two varint bytes: 0x96 0x01
	if data[hit.start] != reportLead || data[hit.start+1] != 0x96 {
		t.Fatalf("line 150 opens %x", data[hit.start:hit.start+3])
	}
	data[hit.start+1] ^= 0x80 // one byte now: LSN 22, far behind
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec := st.Recovery(); rec.CorruptRecords != 1 || len(rec.Tail) != 199 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, %d corrupt, %d bytes truncated; want 199, 1, 0", len(rec.Tail), rec.CorruptRecords, rec.TruncatedBytes)
	}
}

// linesOf reads every line of buf with ParseRecordLine, as the entries they
// hold.
func linesOf(t *testing.T, buf []byte) []Entry {
	t.Helper()
	var out []Entry
	for _, line := range bytes.SplitAfter(buf, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		first, smps, ok := ParseRecordLine(nil, line, nil)
		if !ok {
			t.Fatalf("line %q does not parse", line)
		}
		for i, smp := range smps {
			out = append(out, Entry{LSN: first + uint64(i), Sample: smp})
		}
	}
	return out
}

// TestReportLineMatchesSampleLines is the report line's oracle: the samples a
// report's line holds read back, LSN for LSN and field for field, as the
// lines the store wrote for the same samples one at a time before report
// lines — sample lines, and JSON for what that form does not carry — read
// back with their times in UTC, over reports drawn from the corpus every
// codec is tested on. Every report JSON carries is one report line.
func TestReportLineMatchesSampleLines(t *testing.T) {
	r := rng.NewNamed(37, "report-oracle")
	oldForms := map[bool]int{}
	for i := 0; i < 3000; i++ {
		samples := make([]trace.Sample, 1+r.Intn(12))
		clientID := tracetest.PlainSample(r).ClientID
		for j := range samples {
			switch k := r.Intn(10); {
			case k < 4 && j > 0: // the sample before, another value: the flags' case
				samples[j] = samples[j-1]
				samples[j].Value = r.Range(0, 1000)
			case k < 8:
				samples[j] = tracetest.PlainSample(r)
				samples[j].Time = samples[j].Time.UTC()
			default:
				samples[j] = tracetest.Sample(r)
			}
			if r.Bool(0.5) {
				samples[j].ClientID = clientID
			}
		}
		first := r.Uint64() >> uint(1+r.Intn(63))
		var old []byte
		var oldErr error
		for j, smp := range samples {
			if old, oldErr = appendSampleLine(old, first+uint64(j), smp); oldErr != nil {
				break
			}
		}
		line, err := appendReportLine([]byte("kept"), first, clientID, samples)
		if (err != nil) != (oldErr != nil) {
			t.Fatalf("report %d: report line err %v, sample lines err %v", i, err, oldErr)
		}
		if err != nil {
			if string(line) != "kept" {
				t.Fatalf("report %d: a refused report left %q", i, line)
			}
			continue
		}
		line = line[len("kept"):]
		if line[0] != reportLead || bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("report %d: wrote %q, want one report line", i, line)
		}
		samplesOnly := true // the old lines were all sample lines, no JSON
		for _, l := range bytes.SplitAfter(old, []byte("\n")) {
			samplesOnly = samplesOnly && (len(l) == 0 || l[0] == sampleLead)
		}
		oldForms[samplesOnly]++
		got, want := linesOf(t, line), linesOf(t, old)
		for j := range want {
			want[j].Sample = inUTC(want[j].Sample)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report %d of %d samples at LSN %d:\nreport line %+v\nsample lines %+v", i, len(samples), first, got, want)
		}
		checkBinaryDecode(t, line)
	}
	if oldForms[true] < 300 || oldForms[false] < 300 {
		t.Fatalf("reports once all sample lines: %d, once with JSON lines: %d; want 300 of each at least", oldForms[true], oldForms[false])
	}
}

// TestUpgradeAcrossFormats: a data directory written when every line was
// JSON, reopened by a store that wrote sample lines (and JSON for what they
// did not carry), then by one that writes report lines, and appended to at
// each step — some JSON and sample lines taken through AppendAt, as a replica
// of an older primary does — reads the same through every reader: recovery,
// ReadBatch, and NextLines with ParseRecordLine, each giving every LSN the
// sample the oracle's JSON line of it decodes to (with its time in UTC, for a
// sample journaled in a report line), with cursors opened at every LSN,
// inside report lines too. The JSON lines come from a test fixture: the store
// no longer writes them.
func TestUpgradeAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentMaxBytes: 2000}
	r := rng.NewNamed(26, "upgrade")
	want := map[uint64]trace.Sample{}
	expect := func(lsn uint64, smp trace.Sample) {
		t.Helper()
		line, err := oracleLine(lsn, smp)
		if err != nil {
			t.Fatal(err)
		}
		got, _, ok := parseOne(line)
		if !ok {
			t.Fatalf("the oracle's line %q does not parse", line)
		}
		want[lsn] = got
	}
	// draw draws a sample JSON can carry; most of them a sample line can.
	draw := func() trace.Sample {
		for {
			smp := tracetest.Sample(r)
			if r.Bool(0.5) {
				smp = tracetest.PlainSample(r)
			}
			if r.Bool(0.8) {
				smp.Time = smp.Time.UTC()
			}
			if _, err := appendJSONLine(nil, 1, smp); err == nil {
				return smp
			}
		}
	}
	// session opens the store, appends n samples with write, and closes it.
	session := func(n int, write func(st *Store, lsn uint64, smp trace.Sample) error) {
		t.Helper()
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			smp := draw()
			lsn := st.LastLSN() + 1
			if err := write(st, lsn, smp); err != nil {
				t.Fatal(err)
			}
			expect(lsn, smp)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAt := func(encode func([]byte, uint64, trace.Sample) ([]byte, error)) func(*Store, uint64, trace.Sample) error {
		return func(st *Store, lsn uint64, smp trace.Sample) error {
			line, err := encode(nil, lsn, smp)
			if err != nil {
				return err
			}
			return st.AppendAt(lsn, line, nil)
		}
	}

	// The oldest store's log: JSON lines only, over several segments. Then
	// the sample lines' store, JSON among them.
	session(40, appendAt(appendJSONLine))
	session(40, appendAt(appendSampleLine))

	// Reopened and appended to in reports, each one report line, and JSON and
	// sample lines taken as they are.
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		lsn := st.LastLSN() + 1
		if i%6 == 2 || i%6 == 5 { // a replica of an older primary takes its lines as they are
			smp := draw()
			encode := appendJSONLine
			if i%6 == 2 {
				encode = appendSampleLine
			}
			if err := appendAt(encode)(st, lsn, smp); err != nil {
				t.Fatal(err)
			}
			expect(lsn, smp)
			continue
		}
		report := make([]trace.Sample, 1+r.Intn(8))
		for j := range report {
			report[j] = draw()
			expect(lsn+uint64(j), report[j])
			want[lsn+uint64(j)] = inUTC(want[lsn+uint64(j)])
		}
		if last, err := st.AppendReport("upgrade-client", report); err != nil || last != lsn+uint64(len(report))-1 {
			t.Fatalf("AppendReport: last LSN %d, err %v; want %d", last, err, lsn+uint64(len(report))-1)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	forms, mixedSegs := map[byte]int{}, 0 // lines by lead byte, JSON under '0'; segments holding all three
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		here := map[byte]int{}
		for _, l := range splitLines(data) {
			lead := data[l.start]
			if lead != sampleLead && lead != reportLead {
				lead = '0'
			}
			here[lead]++
			forms[lead]++
		}
		if len(here) == 3 {
			mixedSegs++
		}
	}
	// Every AppendReport — 32 of the 48 appends, over samples at offsets and
	// of invalid UTF-8 among them — is one report line.
	if forms['0'] < 45 || forms[sampleLead] < 20 || forms[reportLead] != 32 || mixedSegs == 0 {
		t.Fatalf("the log's lines by form: %v, %d segments of all three; want all three forms, in one segment too, and 32 report lines", forms, mixedSegs)
	}

	check := func(reader string, lsn uint64, got trace.Sample) {
		t.Helper()
		if w, ok := want[lsn]; !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: LSN %d reads %+v, want %+v", reader, lsn, got, w)
		}
	}
	total := uint64(len(want))
	for from := uint64(1); from <= total; from++ {
		es, err := st.ReadBatch(from, 1000)
		if err != nil || uint64(len(es)) != total-from+1 {
			t.Fatalf("ReadBatch from %d: %d records, err %v; want %d", from, len(es), err, total-from+1)
		}
		for i, e := range es {
			if e.LSN != from+uint64(i) {
				t.Fatalf("ReadBatch from %d: LSNs %v", from, lsns(es))
			}
			check("ReadBatch", e.LSN, e.Sample)
		}
	}
	c := st.OpenCursor(1)
	lines, err := readLines(c, 1000)
	c.Close()
	if err != nil || uint64(len(lines)) != total {
		t.Fatalf("NextLines: %d records, err %v; want %d", len(lines), err, total)
	}
	for _, e := range lines {
		check("NextLines", e.LSN, e.Sample)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if uint64(len(rec.Tail)) != total || rec.CorruptRecords != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, %d corrupt, %d bytes truncated; want %d, 0, 0", len(rec.Tail), rec.CorruptRecords, rec.TruncatedBytes, total)
	}
	for i, smp := range rec.Tail {
		check("recovery", uint64(i+1), smp)
	}
	if got := st.LastLSN(); got != total {
		t.Fatalf("reopened at LSN %d, want %d", got, total)
	}
}

// TestCheckpointLineRoundTrips: a checkpoint line is the checkpoint, stuffed
// the way a binary line's body is, between CheckpointLead and one newline,
// and ParseCheckpointLine takes back exactly what AppendCheckpointLine wrote
// and nothing spelled otherwise.
func TestCheckpointLineRoundTrips(t *testing.T) {
	snap := core.Snapshot{TakenAt: time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC), Entries: []core.SnapshotEntry{
		{Key: core.Key{Net: "netۛ"}, TotalCount: 3}, // U+06DB is DB 9B in UTF-8: an escape byte to stuff
	}}
	ckpt, err := AppendCheckpoint(nil, Mark{42, 7}, snap)
	if err != nil {
		t.Fatal(err)
	}
	line, err := AppendCheckpointLine([]byte("kept"), Mark{42, 7}, snap)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := bytes.CutPrefix(line, []byte("kept"))
	body, unstuffed := trace.Unstuff(nil, line[1:len(line)-1])
	if !ok || line[0] != CheckpointLead || bytes.IndexByte(line, '\n') != len(line)-1 ||
		!bytes.Contains(line, []byte{trace.SlipEsc, trace.SlipEscEsc}) || !unstuffed || !bytes.Equal(body, ckpt) {
		t.Fatalf("checkpoint line %q does not hold the checkpoint %q", line, ckpt)
	}
	got, at, err := ParseCheckpointLine(line)
	if err != nil || at != (Mark{42, 7}) || !reflect.DeepEqual(got.Entries, snap.Entries) || !got.TakenAt.Equal(snap.TakenAt) {
		t.Fatalf("read back %+v, %+v (err %v); want LSN 42 sum 7, %+v", at, got, err, snap)
	}

	respell := func(old, new string) []byte {
		c := bytes.Replace(ckpt, []byte(old), []byte(new), 1)
		nl := bytes.IndexByte(c, '\n')
		copy(c[nl-8:], fmt.Sprintf("%08x", crc32.ChecksumIEEE(c[nl+1:])))
		return append(trace.Stuff(append([]byte{CheckpointLead}, c...), 1), '\n')
	}
	flipped := append([]byte(nil), line...)
	flipped[len(flipped)/2] ^= 1
	for name, bad := range map[string][]byte{
		"another lead byte":           append([]byte{reportLead}, line[1:]...),
		"no newline":                  line[:len(line)-1],
		"a raw newline":               append(bytes.Replace(line[:len(line)-1], []byte{trace.SlipEsc, trace.SlipEscNL}, []byte{'\n'}, 1), '\n'),
		"an escape for nothing":       append(append(line[:len(line)-1:len(line)-1], trace.SlipEsc, 'x'), '\n'),
		"a flipped byte":              flipped,
		"a zero-padded LSN":           respell(" 42 ", " 042 "),
		"a zero-padded sum":           respell(" 7 ", " 07 "),
		"the JSON indented otherwise": respell("\n  ", "\n   "),
	} {
		if _, _, err := ParseCheckpointLine(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := ParseCheckpointLine(respell(" 42 ", " 42 ")); err != nil {
		t.Fatalf("the respelling harness spoils what it does not change: %v", err)
	}
}
