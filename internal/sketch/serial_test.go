package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// unmarshalDigest decodes a digest into fresh storage.
func unmarshalDigest(b []byte) (*Digest, error) {
	d := new(Digest)
	if err := d.unmarshal(b); err != nil {
		return nil, err
	}
	return d, nil
}

func TestDigestSerializeRoundTrip(t *testing.T) {
	d := NewDigest(DefaultCompression)
	r := rng.New(17)
	for i := 0; i < 25000; i++ {
		d.Add(math.Exp(4 + 0.6*r.NormFloat64()))
	}
	b1 := d.appendBinary(nil)
	got, err := unmarshalDigest(b1)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		if got.Quantile(q) != d.Quantile(q) {
			t.Fatalf("q=%.2f changed across round-trip: %v vs %v", q, got.Quantile(q), d.Quantile(q))
		}
	}
	if got.Count() != d.Count() {
		t.Fatalf("count changed: %v vs %v", got.Count(), d.Count())
	}
	// Canonical form: re-marshaling the reconstruction is byte-identical.
	if b2 := got.appendBinary(nil); !bytes.Equal(b1, b2) {
		t.Fatal("round-tripped digest serializes to different bytes")
	}
}

func TestDigestSerializeEmpty(t *testing.T) {
	d := NewDigest(DefaultCompression)
	got, err := unmarshalDigest(d.appendBinary(nil))
	if err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if got.Count() != 0 {
		t.Fatal("empty digest round-trip not empty")
	}
}

func TestDigestSerializeDeterministic(t *testing.T) {
	mk := func() []byte {
		d := NewDigest(DefaultCompression)
		r := rng.New(23)
		for i := 0; i < 5000; i++ {
			d.Add(100 + 10*r.NormFloat64())
		}
		return d.appendBinary(nil)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("same sample sequence must serialize to identical bytes")
	}
}

func TestUnmarshalDigestRejectsCorrupt(t *testing.T) {
	d := NewDigest(DefaultCompression)
	for i := 0; i < 1000; i++ {
		d.Add(float64(i))
	}
	good := d.appendBinary(nil)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-5],
		"magic":     append([]byte{0, 0, 0, 0}, good[4:]...),
		"version":   append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
	}
	// Negative centroid weight.
	neg := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		neg[digestHeaderLen+8+i] = 0xff // weight -> NaN pattern
	}
	cases["nan-weight"] = neg

	for name, b := range cases {
		if _, err := unmarshalDigest(b); err == nil {
			t.Errorf("%s: corrupt digest accepted", name)
		}
	}
}

func TestEpochSketchSerializeRoundTrip(t *testing.T) {
	es := NewEpochSketch(DefaultCompression)
	es.EnableTrend(DefaultTrendSlots, time.Minute)
	r := rng.New(29)
	t0 := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10000; i++ {
		es.Observe(t0.Add(time.Duration(i)*time.Minute), 880+70*r.NormFloat64())
	}
	b1 := es.MarshalBinary()
	got, err := UnmarshalEpochSketch(b1)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Count() != es.Count() || got.Mean() != es.Mean() || got.StdDev() != es.StdDev() {
		t.Fatal("moments changed across round-trip")
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got.Quantile(q) != es.Quantile(q) {
			t.Fatalf("q=%.2f changed across round-trip", q)
		}
	}
	s1, p1 := es.AppendTrendSeries(nil)
	s2, p2 := got.AppendTrendSeries(nil)
	if p1 != p2 || len(s1) != len(s2) || got.TrendLen() != len(s1) || es.TrendLen() != len(s1) {
		t.Fatalf("trend changed: %d@%v vs %d@%v (TrendLen %d vs %d)", len(s1), p1, len(s2), p2, es.TrendLen(), got.TrendLen())
	}
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-6 {
			t.Fatalf("trend slot %d changed: %v vs %v", i, s1[i], s2[i])
		}
	}
	if b2 := got.MarshalBinary(); !bytes.Equal(b1, b2) {
		t.Fatal("round-tripped sketch serializes to different bytes")
	}
}

func TestEpochSketchSerializeNoTrend(t *testing.T) {
	es := NewEpochSketch(EpochCompression)
	es.Add(1)
	es.Add(2)
	got, err := UnmarshalEpochSketch(es.MarshalBinary())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.trend != nil || got.TrendLen() != 0 {
		t.Fatal("trendless sketch grew a trend")
	}
	if got.Count() != 2 || got.Mean() != 1.5 {
		t.Fatal("moments wrong after round-trip")
	}
}

func TestUnmarshalEpochSketchRejectsCorrupt(t *testing.T) {
	es := NewEpochSketch(EpochCompression)
	es.EnableTrend(8, time.Minute)
	es.Observe(time.Unix(1_700_000_000, 0), 5)
	good := es.MarshalBinary()
	for name, b := range map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"magic":     append([]byte{1, 2, 3, 4}, good[4:]...),
		"extra":     append(append([]byte(nil), good...), 0xAB),
	} {
		if _, err := UnmarshalEpochSketch(b); err == nil {
			t.Errorf("%s: corrupt sketch accepted", name)
		}
	}
}

// TestUnmarshalRefusesOutsizedCompression: a digest's array is sized by its
// compression, so a frame naming one above maxCompression is refused. The
// 93-byte frame of an empty δ = 1e6 sketch used to decode into a 16 MB
// digest; δ = maxCompression, the largest accepted, decodes.
func TestUnmarshalRefusesOutsizedCompression(t *testing.T) {
	withCompression := func(compression float64) []byte {
		b := NewEpochSketch(DefaultCompression).MarshalBinary()
		binary.LittleEndian.PutUint64(b[sketchHeaderLen+4+5:], math.Float64bits(compression))
		return b
	}
	for _, compression := range []float64{maxCompression + 1, 1e6} {
		b := withCompression(compression)
		if e, err := UnmarshalEpochSketch(b); err == nil {
			t.Errorf("a %d-byte frame of δ = %v accepted, footprint %d bytes", len(b), compression, e.FootprintBytes())
		}
		if _, err := unmarshalDigest(b[sketchHeaderLen+4:]); err == nil {
			t.Errorf("a digest of δ = %v accepted", compression)
		}
	}
	if e, err := UnmarshalEpochSketch(withCompression(maxCompression)); err != nil || e.dig.compression != maxCompression {
		t.Fatalf("a sketch of δ = %v: %v", float64(maxCompression), err)
	}
}

func TestUnmarshalDigestNoPanicOnArbitrary(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 2000; i++ {
		n := r.Intn(200)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		_, _ = unmarshalDigest(b)      // must not panic
		_, _ = UnmarshalEpochSketch(b) // must not panic
	}
}

// referenceMarshal is the three-buffer encoder AppendBinary replaced, kept
// here as the oracle for the bytes it must write and the state it must
// leave behind.
func referenceMarshal(e *EpochSketch) []byte {
	cs := e.dig.Centroids()
	dig := make([]byte, 0, digestHeaderLen+16*len(cs))
	dig = binary.LittleEndian.AppendUint32(dig, digestMagic)
	dig = append(dig, digestV1)
	dig = appendF64(dig, e.dig.compression)
	dig = appendF64(dig, e.dig.Min())
	dig = appendF64(dig, e.dig.Max())
	dig = appendF64(dig, e.dig.count)
	dig = binary.LittleEndian.AppendUint16(dig, uint16(len(cs)))
	for _, c := range cs {
		dig = appendF64(dig, c.Mean)
		dig = appendF64(dig, c.Weight)
	}
	var tr []byte
	flags := byte(0)
	if t := e.trend; t != nil {
		flags |= flagHasTrend
		tr = make([]byte, 0, trendHeaderLen+8*len(t.slots))
		tr = append(tr, trendV1)
		tr = binary.LittleEndian.AppendUint16(tr, uint16(len(t.slots)))
		tr = binary.LittleEndian.AppendUint64(tr, uint64(t.base))
		var t0 int64
		if t.last >= 0 {
			t0 = t.t0.UnixNano()
		}
		tr = binary.LittleEndian.AppendUint64(tr, uint64(t0))
		tr = binary.LittleEndian.AppendUint32(tr, uint32(int32(t.last)))
		for _, s := range t.slots {
			tr = binary.LittleEndian.AppendUint32(tr, math.Float32bits(s.mean))
			tr = binary.LittleEndian.AppendUint32(tr, s.n)
		}
	}
	st := e.acc.State()
	b := make([]byte, 0, sketchHeaderLen+4+len(dig)+4+len(tr))
	b = binary.LittleEndian.AppendUint32(b, sketchMagic)
	b = append(b, sketchV1, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.N))
	b = appendF64(b, st.Mean)
	b = appendF64(b, st.M2)
	b = appendF64(b, st.Min)
	b = appendF64(b, st.Max)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dig)))
	b = append(b, dig...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tr)))
	return append(b, tr...)
}

// seededSketches builds, afresh on every call, one sketch of each shape the
// encoder has to get right.
func seededSketches(t *testing.T) map[string]*EpochSketch {
	t.Helper()
	t0 := time.Unix(1_700_000_000, 0)
	observe := func(es *EpochSketch, seed uint64, n int, step time.Duration) *EpochSketch {
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			es.Observe(t0.Add(time.Duration(i)*step), 900+80*r.NormFloat64())
		}
		return es
	}
	withTrend := func(slots int) *EpochSketch {
		es := NewEpochSketch(DefaultCompression)
		es.EnableTrend(slots, time.Minute)
		return es
	}
	decayed := observe(withTrend(DefaultTrendSlots), 3, 700, time.Minute)
	decayed.Decay(0.5)
	observe(decayed, 4, 50, time.Minute)
	restored, err := UnmarshalEpochSketch(observe(withTrend(DefaultTrendSlots), 5, 400, time.Minute).MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	observe(restored, 6, 90, time.Minute)
	coalesced := observe(withTrend(16), 7, 300, time.Minute)
	if coalesced.trend.Period() == time.Minute {
		t.Fatal("the coalesce case never coalesced")
	}
	return map[string]*EpochSketch{
		"empty":       NewEpochSketch(DefaultCompression),
		"empty-trend": withTrend(DefaultTrendSlots),
		"digest-only": observe(NewEpochSketch(EpochCompression), 1, 3000, 0),
		"trend":       observe(withTrend(DefaultTrendSlots), 2, 2500, time.Minute),
		"decayed":     decayed,
		"coalesced":   coalesced,
		"restored":    restored,
	}
}

// TestAppendBinaryWritesReferenceBytes: appended onto a prefix, with or
// without room to spare, a sketch's bytes follow the prefix untouched and
// are exactly the reference encoder's for the same sketch; MarshalBinary
// writes them too.
func TestAppendBinaryWritesReferenceBytes(t *testing.T) {
	want := seededSketches(t)
	for name, es := range seededSketches(t) {
		ref := referenceMarshal(want[name])
		for _, prefix := range [][]byte{[]byte("prefix"), append(make([]byte, 0, 4096), "roomy"...)} {
			got := es.AppendBinary(prefix)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], ref) {
				t.Fatalf("%s: AppendBinary after %d prefix bytes (cap %d) differs from the reference encoder", name, len(prefix), cap(prefix))
			}
		}
		if !bytes.Equal(es.MarshalBinary(), ref) {
			t.Fatalf("%s: MarshalBinary differs from the reference encoder", name)
		}
	}
}

// TestAppendBinaryLeavesReferenceState: encoding compresses the digest in
// place, so it shapes every later centroid. Read partway through a stream
// by AppendBinary or by the reference encoder, two sketches end in the
// same state: the same quantiles and the same bytes.
func TestAppendBinaryLeavesReferenceState(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	vals := make([]float64, 600)
	r := rng.New(11)
	for i := range vals {
		vals[i] = 900 + 80*r.NormFloat64()
	}
	for split := 0; split <= len(vals); split += 25 {
		a, b := NewEpochSketch(DefaultCompression), NewEpochSketch(DefaultCompression)
		a.EnableTrend(DefaultTrendSlots, time.Minute)
		b.EnableTrend(DefaultTrendSlots, time.Minute)
		var buf []byte
		for i, v := range vals {
			if i == split {
				buf = a.AppendBinary(buf[:0])
				referenceMarshal(b)
			}
			at := t0.Add(time.Duration(i) * time.Minute)
			a.Observe(at, v)
			b.Observe(at, v)
		}
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
				t.Fatalf("split %d: q%v %v after AppendBinary, %v after the reference encoder", split, q, qa, qb)
			}
		}
		if !bytes.Equal(a.AppendBinary(buf[:0]), referenceMarshal(b)) {
			t.Fatalf("split %d: final state differs", split)
		}
	}
}

// TestFuzzCorpusReencodes: every checked-in FuzzSketchRoundTrip entry that
// decodes as a digest re-encodes to itself, and every entry read as a
// sample stream builds a sketch whose bytes are the reference encoder's.
func TestFuzzCorpusReencodes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSketchRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	digests := 0
	for _, name := range files {
		data := readCorpusBytes(t, name)
		if d, err := unmarshalDigest(data); err == nil {
			digests++
			if got := d.appendBinary([]byte{0xAA}); got[0] != 0xAA || !bytes.Equal(got[1:], data) {
				t.Errorf("%s: digest does not re-encode to itself", name)
			}
		}
		if !bytes.Equal(trendSketchFrom(data, DefaultCompression).AppendBinary(nil), referenceMarshal(trendSketchFrom(data, DefaultCompression))) {
			t.Errorf("%s: sketch bytes differ from the reference encoder", name)
		}
	}
	if digests == 0 {
		t.Fatal("no corpus entry decodes as a digest")
	}
}

// readCorpusBytes reads a one-value `go test fuzz v1` file of a []byte.
func readCorpusBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", name)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a []byte literal: %v", name, err)
	}
	return []byte(s)
}

// TestAppendBinaryWarmAllocatesNothing: into a buffer already long enough,
// AppendBinary allocates nothing.
func TestAppendBinaryWarmAllocatesNothing(t *testing.T) {
	es := seededSketches(t)["trend"]
	buf := es.AppendBinary(nil)
	if n := testing.AllocsPerRun(100, func() { buf = es.AppendBinary(buf[:0]) }); n != 0 {
		t.Fatalf("AppendBinary into a warm buffer: %v allocations, want 0", n)
	}
}
