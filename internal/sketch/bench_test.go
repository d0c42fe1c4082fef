package sketch

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

// benchValues returns a deterministic lognormal-ish stream so every
// benchmark run exercises the same centroid dynamics.
func benchValues(n int) []float64 {
	r := rng.New(7)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(6.8 + 0.4*r.NormFloat64()) // ~900 kbps center, heavy right tail
	}
	return out
}

func BenchmarkDigestAdd(b *testing.B) {
	vals := benchValues(4096)
	d := NewDigest(DefaultCompression)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(vals[i%len(vals)])
	}
	b.ReportMetric(float64(d.FootprintBytes()), "bytes/digest")
}

func BenchmarkDigestQuantile(b *testing.B) {
	d := NewDigest(DefaultCompression)
	for _, v := range benchValues(50000) {
		d.Add(v)
	}
	qs := []float64{0.5, 0.9, 0.99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Quantile(qs[i%len(qs)])
	}
}

func BenchmarkDigestMerge(b *testing.B) {
	// Merge a fresh pair each iteration: Merge mutates the receiver, so
	// reusing one would measure an ever-denser digest instead.
	vals := benchValues(2048)
	parts := make([]*Digest, 2)
	for p := range parts {
		parts[p] = NewDigest(DefaultCompression)
		for i, v := range vals {
			if i%2 == p {
				parts[p].Add(v)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDigest(DefaultCompression)
		d.Merge(parts[0])
		d.Merge(parts[1])
	}
}

func BenchmarkDigestMarshal(b *testing.B) {
	d := NewDigest(DefaultCompression)
	for _, v := range benchValues(50000) {
		d.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(d.appendBinary(nil))
	}
	b.ReportMetric(float64(n), "bytes/payload")
}

func BenchmarkEpochSketchObserve(b *testing.B) {
	vals := benchValues(4096)
	es := NewEpochSketch(DefaultCompression)
	es.EnableTrend(DefaultTrendSlots, time.Minute)
	at := time.Unix(1283763600, 0) // 2010-09-06 09:00 UTC, the repo's seed epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es.Observe(at, vals[i%len(vals)])
		at = at.Add(30 * time.Second)
	}
	b.ReportMetric(float64(es.FootprintBytes()), "bytes/sketch")
}

// BenchmarkEpochSketchAppend encodes a window-shaped sketch (digest plus
// trend ring) into one reused buffer, as a shard's estimate reply and a
// checkpoint do: nothing is allocated once the buffer is warm.
func BenchmarkEpochSketchAppend(b *testing.B) {
	es := NewEpochSketch(DefaultCompression)
	es.EnableTrend(DefaultTrendSlots, time.Minute)
	at := time.Unix(1283763600, 0)
	for _, v := range benchValues(50000) {
		es.Observe(at, v)
		at = at.Add(30 * time.Second)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = es.AppendBinary(buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "bytes/payload")
}
