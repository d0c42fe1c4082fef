package sketch

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestDigestSerializeRoundTrip(t *testing.T) {
	d := NewDigest(DefaultCompression)
	r := rng.New(17)
	for i := 0; i < 25000; i++ {
		d.Add(math.Exp(4 + 0.6*r.NormFloat64()))
	}
	b1 := d.MarshalBinary()
	got, err := UnmarshalDigest(b1)
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
	if b2 := got.MarshalBinary(); !bytes.Equal(b1, b2) {
		t.Fatal("round-tripped digest serializes to different bytes")
	}
}

func TestDigestSerializeEmpty(t *testing.T) {
	d := NewDigest(DefaultCompression)
	got, err := UnmarshalDigest(d.MarshalBinary())
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
		return d.MarshalBinary()
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
	good := d.MarshalBinary()

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
		if _, err := UnmarshalDigest(b); err == nil {
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

func TestUnmarshalDigestNoPanicOnArbitrary(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 2000; i++ {
		n := r.Intn(200)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		_, _ = UnmarshalDigest(b)      // must not panic
		_, _ = UnmarshalEpochSketch(b) // must not panic
	}
}
