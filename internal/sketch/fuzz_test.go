package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// valuesFrom reinterprets fuzz input as a float64 sample stream (8 bytes
// per value, little-endian), capped so one input cannot stall the fuzzer.
func valuesFrom(data []byte) []float64 {
	const maxVals = 4096
	n := len(data) / 8
	if n > maxVals {
		n = maxVals
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
	}
	return out
}

// trendSketchFrom builds a sketch of compression δ with a small trend ring
// from data's values, a minute apart, so a long stream coalesces the ring.
func trendSketchFrom(data []byte, compression float64) *EpochSketch {
	es := NewEpochSketch(compression)
	es.EnableTrend(8, time.Minute)
	t0 := time.Unix(1_700_000_000, 0)
	for i, v := range valuesFrom(data) {
		es.Observe(t0.Add(time.Duration(i)*time.Minute), v)
	}
	return es
}

// FuzzSketchRoundTrip drives the digest with arbitrary sample streams and
// pins the serialization invariants: appendBinary → Digest.unmarshal never
// fails on self-produced bytes, every quantile survives the round-trip
// exactly, the reconstruction re-serializes byte-identically (canonical
// form), appended after a prefix of the input too, a sketch with a trend
// ring appends the reference encoder's bytes after that prefix, and
// feeding the raw fuzz input to the deserializers never panics. The raw
// input decoded into a sketch another decode has used (δ = 50, with a
// trend) is the same as decoded fresh: both accept or both refuse, and
// accepted, both re-encode to the same bytes and have the same footprint,
// so no reused array keeps a capacity the fresh decode would not give it.
func FuzzSketchRoundTrip(f *testing.F) {
	// Seed corpus: value streams covering the shapes that matter (uniform
	// ramp, constant, tiny, huge spread, non-finite poison) plus one
	// well-formed serialized digest so the mutator explores the decoder.
	ramp := make([]byte, 0, 400*8)
	for i := 0; i < 400; i++ {
		ramp = binary.LittleEndian.AppendUint64(ramp, math.Float64bits(float64(i)))
	}
	f.Add(ramp)
	constant := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		constant = binary.LittleEndian.AppendUint64(constant, math.Float64bits(42.5))
	}
	f.Add(constant)
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1e300)),
		math.Float64bits(1e300)))
	seedDigest := NewDigest(minCompression)
	for i := 0; i < 100; i++ {
		seedDigest.Add(float64(i * i))
	}
	f.Add(seedDigest.appendBinary(nil))
	f.Add(trendSketchFrom(ramp, DefaultCompression).MarshalBinary())
	f.Add(trendSketchFrom(constant, EpochCompression).MarshalBinary())

	prior := trendSketchFrom(ramp, EpochCompression).MarshalBinary()
	var used EpochSketch
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the deserializers: errors fine, panics not.
		if d, err := unmarshalDigest(data); err == nil {
			// Accepted bytes must round-trip to the same canonical form.
			if !bytes.Equal(d.appendBinary(nil), data) {
				t.Fatal("accepted digest bytes are not canonical")
			}
		}
		fresh, err := UnmarshalEpochSketch(data)
		if perr := used.UnmarshalBinary(prior); perr != nil {
			t.Fatalf("the prior sketch: %v", perr)
		}
		if uerr := used.UnmarshalBinary(data); (uerr == nil) != (err == nil) {
			t.Fatalf("decoded fresh: %v; into a used sketch: %v", err, uerr)
		}
		if err == nil {
			if a, b := fresh.MarshalBinary(), used.MarshalBinary(); !bytes.Equal(a, b) {
				t.Fatal("decoded into a used sketch, the bytes re-encode differently")
			}
			if a, b := fresh.FootprintBytes(), used.FootprintBytes(); a != b {
				t.Fatalf("footprint %d decoded fresh, %d into a used sketch", a, b)
			}
		}

		// Same bytes as a sample stream: build → serialize → deserialize →
		// quantiles equal.
		d := NewDigest(DefaultCompression)
		for _, v := range valuesFrom(data) {
			d.Add(v)
		}
		b1 := d.appendBinary(nil)
		got, err := unmarshalDigest(b1)
		if err != nil {
			t.Fatalf("self-produced digest bytes rejected: %v", err)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			if a, b := d.Quantile(q), got.Quantile(q); a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("quantile %v changed across round-trip: %v vs %v", q, a, b)
			}
		}
		if got.Count() != d.Count() {
			t.Fatalf("count changed across round-trip: %v vs %v", got.Count(), d.Count())
		}
		if b2 := got.appendBinary(nil); !bytes.Equal(b1, b2) {
			t.Fatal("round-tripped digest serializes to different bytes")
		}

		// Appended after a copy of a prefix of the input (the input itself
		// must not be written), the prefix survives and the rest is exactly
		// the encoding.
		prefix := append([]byte(nil), data[:len(data)%23]...)
		if b3 := got.appendBinary(prefix); !bytes.Equal(b3[:len(prefix)], data[:len(prefix)]) || !bytes.Equal(b3[len(prefix):], b1) {
			t.Fatal("digest appended after a prefix differs")
		}
		if b4 := trendSketchFrom(data, DefaultCompression).AppendBinary(prefix); !bytes.Equal(b4[:len(prefix)], data[:len(prefix)]) || !bytes.Equal(b4[len(prefix):], referenceMarshal(trendSketchFrom(data, DefaultCompression))) {
			t.Fatal("sketch appended after a prefix differs from the reference encoder")
		}
	})
}
