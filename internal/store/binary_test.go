package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// frameBinary frames body — an LSN and a sample's binary form, or anything
// else — the way a binary WAL line frames it: lead byte, stuffing, CRC,
// newline.
func frameBinary(body []byte) []byte {
	buf := append([]byte{binaryLead}, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(trace.Stuff(buf, 1), '\n')
}

// sampleBody is the body of the binary line of (lsn, smp), which the binary
// form must carry.
func sampleBody(tb testing.TB, lsn uint64, smp trace.Sample) []byte {
	tb.Helper()
	body, ok := trace.AppendSampleBinary(binary.AppendUvarint(nil, lsn), smp)
	if !ok {
		tb.Fatalf("the binary form does not carry %+v", smp)
	}
	return body
}

// TestBinaryRecordRefusesMalformed holds the binary decoder to failing
// closed: every line below is refused by ParseRecordLine and by AppendAt,
// each without allocating — the one length a binary line spells is a
// string's, and nothing is sized by it.
func TestBinaryRecordRefusesMalformed(t *testing.T) {
	smp := testSample(3)
	smp.Device = "phone"
	good := frameBinary(sampleBody(t, 4, smp))
	if got, lsn, ok := ParseRecordLine(good); !ok || lsn != 4 || !sampleEqual(got, smp) {
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
		{"nothing but the lead byte", []byte{binaryLead, '\n'}},
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
		if _, _, ok := ParseRecordLine(tc.line); ok {
			t.Errorf("%s: ParseRecordLine took %q", tc.name, tc.line)
		}
		if lineHolds(4, tc.line) {
			t.Errorf("%s: AppendAt would journal %q", tc.name, tc.line)
		}
		if raceEnabled {
			continue // the race detector allocates on its own
		}
		if allocs := testing.AllocsPerRun(10, func() {
			ParseRecordLine(tc.line)
			lineHolds(4, tc.line)
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
		if _, _, ok := ParseRecordLine(line); !ok || !lineHolds(4, line) {
			t.Errorf("the %s helper builds a line that is refused: %q", name, line)
		}
	}
}

// checkBinaryDecode holds one binary line to the decoder's contract: it does
// not panic, AppendAt's check takes exactly what ParseRecordLine takes, and
// an accepted line is what the record it decodes to re-encodes to, byte for
// byte.
func checkBinaryDecode(t *testing.T, line []byte) {
	t.Helper()
	smp, lsn, ok := ParseRecordLine(line)
	if holds := lineHolds(lsn, line); holds != ok {
		t.Fatalf("line %q: ParseRecordLine ok %v, AppendAt's check %v", line, ok, holds)
	}
	if !ok {
		return
	}
	if peeked, pok := peekLSN(line); !pok || peeked != lsn {
		t.Fatalf("line %q: read as LSN %d, peeked as %d (ok %v)", line, lsn, peeked, pok)
	}
	again, err := appendRecordLine(nil, lsn, smp)
	if err != nil || !bytes.Equal(again, line) {
		t.Fatalf("line %q decodes to %d %+v, which re-encodes to %q (err %v)", line, lsn, smp, again, err)
	}
}

// FuzzBinaryRecordDecode feeds arbitrary bytes to the binary decoder, two
// ways: as they stand between a binary line's lead byte and its newline, and
// — so that the fuzzer gets past the CRC — as a body the harness stuffs and
// closes with a good CRC. Either way checkBinaryDecode holds.
func FuzzBinaryRecordDecode(f *testing.F) {
	r := rng.NewNamed(25, "binary-decode-seeds")
	for i := 0; i < 8; i++ {
		smp := tracetest.PlainSample(r)
		line, err := appendRecordLine(nil, r.Uint64()>>uint(r.Intn(64)), smp)
		if err != nil || line[0] != binaryLead {
			continue
		}
		f.Add(line[1:len(line)-1], false)
		if _, body, ok := binaryRecord(nil, line); ok {
			lsn, _ := peekLSN(line)
			f.Add(append(binary.AppendUvarint(nil, lsn), body...), true)
		}
	}
	smp := testSample(1)
	smp.Device, smp.Failed = "ph\none\xdb", true
	line, _ := appendRecordLine(nil, 10, smp) // a newline and an escape byte to stuff
	f.Add(line[1:len(line)-1], false)
	f.Add([]byte{}, false)
	f.Add([]byte{trace.SlipEsc}, false)
	f.Add([]byte{0x84, 0x00}, true)
	f.Add(bytes.Repeat([]byte{0xff}, 12), true)
	f.Fuzz(func(t *testing.T, b []byte, framed bool) {
		if framed {
			checkBinaryDecode(t, frameBinary(b))
			return
		}
		checkBinaryDecode(t, append(append([]byte{binaryLead}, b...), '\n'))
	})
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
	if data[hit.start] != binaryLead || data[hit.start+1] != 0x96 {
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

// TestUpgradeAcrossFormats: a data directory written when every line was
// JSON, reopened by a store that writes binary lines and appended to — some
// samples still in JSON, the ones only it carries, and some JSON lines taken
// through AppendAt, as a replica of an older primary does — reads the same
// through every reader: recovery, Cursor.Next, and NextLines with
// ParseRecordLine, each giving every LSN the sample the oracle's JSON line
// of it decodes to.
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
		got, _, ok := ParseRecordLine(line)
		if !ok {
			t.Fatalf("the oracle's line %q does not parse", line)
		}
		want[lsn] = got
	}
	// draw draws a sample JSON can carry; most of them the binary form can.
	draw := func() trace.Sample {
		for {
			smp := tracetest.Sample(r)
			if r.Bool(0.5) {
				smp = tracetest.PlainSample(r)
			}
			if r.Bool(0.7) {
				smp.Time = smp.Time.UTC()
			}
			if _, err := appendRecordLine(nil, 1, smp); err == nil {
				return smp
			}
		}
	}

	// The old store's log: JSON lines only, over several segments.
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 40; lsn++ {
		smp := draw()
		line, err := appendRecordJSON(nil, lsn, smp)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendAt(lsn, line); err != nil {
			t.Fatal(err)
		}
		expect(lsn, smp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened and appended to: binary lines where the form carries the
	// sample, JSON ones among them.
	st, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		smp := draw()
		lsn := st.LastLSN() + 1
		if i%5 == 4 {
			line, err := appendRecordJSON(nil, lsn, smp)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendAt(lsn, line); err != nil {
				t.Fatal(err)
			}
		} else if got, err := st.Append(smp); err != nil || got != lsn {
			t.Fatalf("Append: LSN %d, err %v; want %d", got, err, lsn)
		}
		expect(lsn, smp)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	lineCount, mixedSegs := map[bool]int{}, 0 // lines by binary or not; segments holding both
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		here := map[bool]int{}
		for _, l := range splitLines(data) {
			here[data[l.start] == binaryLead]++
			lineCount[data[l.start] == binaryLead]++
		}
		if len(here) == 2 {
			mixedSegs++
		}
	}
	if lineCount[false] < 56 || lineCount[true] < 20 || mixedSegs == 0 {
		t.Fatalf("the log holds %d JSON and %d binary lines, %d segments of both; want both forms, in one segment too",
			lineCount[false], lineCount[true], mixedSegs)
	}

	check := func(reader string, lsn uint64, got trace.Sample) {
		t.Helper()
		if w, ok := want[lsn]; !ok || !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: LSN %d reads %+v, want %+v", reader, lsn, got, w)
		}
	}
	c := st.OpenCursor(1)
	es, err := c.Next(1000)
	c.Close()
	if err != nil || len(es) != len(want) {
		t.Fatalf("Cursor.Next: %d records, err %v; want %d", len(es), err, len(want))
	}
	for _, e := range es {
		check("Cursor.Next", e.LSN, e.Sample)
	}
	c = st.OpenCursor(1)
	lines, err := readLines(c, 1000)
	c.Close()
	if err != nil || len(lines) != len(want) {
		t.Fatalf("NextLines: %d records, err %v; want %d", len(lines), err, len(want))
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
	if len(rec.Tail) != len(want) || rec.CorruptRecords != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, %d corrupt, %d bytes truncated; want %d, 0, 0", len(rec.Tail), rec.CorruptRecords, rec.TruncatedBytes, len(want))
	}
	for i, smp := range rec.Tail {
		check("recovery", uint64(i+1), smp)
	}
	if got := st.LastLSN(); got != uint64(len(want)) {
		t.Fatalf("reopened at LSN %d, want %d", got, len(want))
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
	ckpt, err := AppendCheckpoint(nil, 42, snap)
	if err != nil {
		t.Fatal(err)
	}
	line, err := AppendCheckpointLine([]byte("kept"), 42, snap)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := bytes.CutPrefix(line, []byte("kept"))
	body, unstuffed := trace.Unstuff(nil, line[1:len(line)-1])
	if !ok || line[0] != CheckpointLead || bytes.IndexByte(line, '\n') != len(line)-1 ||
		!bytes.Contains(line, []byte{trace.SlipEsc, trace.SlipEscEsc}) || !unstuffed || !bytes.Equal(body, ckpt) {
		t.Fatalf("checkpoint line %q does not hold the checkpoint %q", line, ckpt)
	}
	got, lsn, err := ParseCheckpointLine(line)
	if err != nil || lsn != 42 || !reflect.DeepEqual(got.Entries, snap.Entries) || !got.TakenAt.Equal(snap.TakenAt) {
		t.Fatalf("read back LSN %d, %+v (err %v); want 42, %+v", lsn, got, err, snap)
	}

	respell := func(old, new string) []byte {
		c := bytes.Replace(ckpt, []byte(old), []byte(new), 1)
		nl := bytes.IndexByte(c, '\n')
		putCRC(c[nl-8:nl], crc32.ChecksumIEEE(c[nl+1:]))
		return append(trace.Stuff(append([]byte{CheckpointLead}, c...), 1), '\n')
	}
	flipped := append([]byte(nil), line...)
	flipped[len(flipped)/2] ^= 1
	for name, bad := range map[string][]byte{
		"another lead byte":           append([]byte{binaryLead}, line[1:]...),
		"no newline":                  line[:len(line)-1],
		"a raw newline":               append(bytes.Replace(line[:len(line)-1], []byte{trace.SlipEsc, trace.SlipEscNL}, []byte{'\n'}, 1), '\n'),
		"an escape for nothing":       append(append(line[:len(line)-1:len(line)-1], trace.SlipEsc, 'x'), '\n'),
		"a flipped byte":              flipped,
		"a zero-padded LSN":           respell(" 42 ", " 042 "),
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
