package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/stats"
)

// Binary layout (all little-endian, versioned for forward evolution):
//
//	Digest      magic u32 | version u8 | compression f64 | min f64 |
//	            max f64 | count f64 | n u16 | n × (mean f64, weight f64)
//	Trend       version u8 | nslots u16 | base i64 (ns) | t0 i64
//	            (UnixNano) | last i32 | nslots × (mean f32, n u32)
//	EpochSketch magic u32 | version u8 | flags u8 (bit0: trend present) |
//	            accum (n i64, mean f64, m2 f64, min f64, max f64) |
//	            dlen u32 | digest | [tlen u32 | trend]
//
// The encoder compresses first, so the bytes are a canonical function of the
// absorbed sample sequence: same samples, same order → same bytes.

const (
	digestMagic  = 0x77736b64 // "wskd"
	sketchMagic  = 0x77736b65 // "wske"
	digestV1     = 1
	trendV1      = 1
	sketchV1     = 1
	flagHasTrend = 1 << 0

	digestHeaderLen = 4 + 1 + 8 + 8 + 8 + 8 + 2
	trendHeaderLen  = 1 + 2 + 8 + 8 + 4
	sketchHeaderLen = 4 + 1 + 1 + 40
)

// ErrBadSketch is wrapped by every deserialization failure.
var ErrBadSketch = errors.New("sketch: malformed serialized sketch")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSketch, fmt.Sprintf(format, args...))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// appendBinary appends the digest in its canonical compressed form to b:
// digestHeaderLen + 16 bytes a centroid.
func (d *Digest) appendBinary(b []byte) []byte {
	cs := d.Centroids()
	b = binary.LittleEndian.AppendUint32(b, digestMagic)
	b = append(b, digestV1)
	b = appendF64(b, d.compression)
	b = appendF64(b, d.Min())
	b = appendF64(b, d.Max())
	b = appendF64(b, d.count)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cs)))
	for _, c := range cs {
		b = appendF64(b, c.Mean)
		b = appendF64(b, c.Weight)
	}
	return b
}

// UnmarshalDigest reconstructs a digest, validating structure so corrupt
// or adversarial bytes yield an error, never a poisoned digest.
func UnmarshalDigest(b []byte) (*Digest, error) {
	if len(b) < digestHeaderLen {
		return nil, badf("digest truncated: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != digestMagic {
		return nil, badf("digest magic mismatch")
	}
	if b[4] != digestV1 {
		return nil, badf("unsupported digest version %d", b[4])
	}
	compression := getF64(b[5:])
	min := getF64(b[13:])
	max := getF64(b[21:])
	count := getF64(b[29:])
	n := int(binary.LittleEndian.Uint16(b[37:]))
	if math.IsNaN(compression) || compression < minCompression || compression > 1e6 {
		return nil, badf("compression %v out of range", compression)
	}
	if math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(max) || math.IsInf(max, 0) || min > max {
		return nil, badf("min/max invalid")
	}
	if math.IsNaN(count) || math.IsInf(count, 0) || count < 0 {
		return nil, badf("count invalid")
	}
	d := NewDigest(compression)
	if n > d.maxStored {
		return nil, badf("%d centroids exceeds capacity %d", n, d.maxStored)
	}
	if len(b) != digestHeaderLen+16*n {
		return nil, badf("digest length %d != expected %d", len(b), digestHeaderLen+16*n)
	}
	if n == 0 {
		if count != 0 {
			return nil, badf("empty digest with nonzero count")
		}
		return d, nil
	}
	sum := 0.0
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		off := digestHeaderLen + 16*i
		mean := getF64(b[off:])
		weight := getF64(b[off+8:])
		if math.IsNaN(mean) || math.IsInf(mean, 0) || mean < prev {
			return nil, badf("centroid %d mean invalid or unsorted", i)
		}
		if math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
			return nil, badf("centroid %d weight invalid", i)
		}
		if mean < min || mean > max {
			return nil, badf("centroid %d mean outside [min, max]", i)
		}
		d.store = append(d.store, Centroid{Mean: mean, Weight: weight})
		sum += weight
		prev = mean
	}
	if diff := math.Abs(sum - count); diff > 1e-6*(1+math.Abs(count)) {
		return nil, badf("count %v inconsistent with centroid weights %v", count, sum)
	}
	d.nc = n
	d.count = count
	d.min, d.max = min, max
	return d, nil
}

// appendBinary appends the ring to b: trendHeaderLen + 8 bytes a slot.
func (t *Trend) appendBinary(b []byte) []byte {
	b = append(b, trendV1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.slots)))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.base))
	var t0 int64
	if t.last >= 0 {
		t0 = t.t0.UnixNano()
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(t0))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(t.last)))
	for _, s := range t.slots {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(s.mean))
		b = binary.LittleEndian.AppendUint32(b, s.n)
	}
	return b
}

// unmarshalTrend reconstructs a ring.
func unmarshalTrend(b []byte) (*Trend, error) {
	if len(b) < trendHeaderLen {
		return nil, badf("trend truncated: %d bytes", len(b))
	}
	if b[0] != trendV1 {
		return nil, badf("unsupported trend version %d", b[0])
	}
	nslots := int(binary.LittleEndian.Uint16(b[1:]))
	base := time.Duration(binary.LittleEndian.Uint64(b[3:]))
	t0ns := int64(binary.LittleEndian.Uint64(b[11:]))
	last := int(int32(binary.LittleEndian.Uint32(b[19:])))
	if nslots < 2 || nslots > 1<<14 {
		return nil, badf("trend slot count %d out of range", nslots)
	}
	if base <= 0 {
		return nil, badf("trend base %v invalid", base)
	}
	if last < -1 || last >= nslots {
		return nil, badf("trend last index %d out of range", last)
	}
	if len(b) != trendHeaderLen+8*nslots {
		return nil, badf("trend length %d != expected %d", len(b), trendHeaderLen+8*nslots)
	}
	t := NewTrend(nslots, base)
	t.last = last
	if last >= 0 {
		t.t0 = time.Unix(0, t0ns)
	}
	for i := 0; i < nslots; i++ {
		off := trendHeaderLen + 8*i
		mean := math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		n := binary.LittleEndian.Uint32(b[off+4:])
		if n > 0 && (math.IsNaN(float64(mean)) || math.IsInf(float64(mean), 0)) {
			return nil, badf("trend slot %d mean invalid", i)
		}
		if n > 0 && i > last {
			return nil, badf("trend slot %d filled past last=%d", i, last)
		}
		t.slots[i] = trendSlot{mean: mean, n: n}
	}
	return t, nil
}

// MarshalBinary serializes the full estimator state — digest, moments and
// (when attached) trend — as the checkpoint and fan-out payload.
func (e *EpochSketch) MarshalBinary() []byte { return e.AppendBinary(nil) }

// AppendBinary appends what MarshalBinary returns to b, growing it at most
// once: the digest is compressed first, after which both segments' lengths
// are known. Like every read of the digest, it compresses e in place.
func (e *EpochSketch) AppendBinary(b []byte) []byte {
	dlen := digestHeaderLen + 16*len(e.dig.Centroids())
	tlen, flags := 0, byte(0)
	if e.trend != nil {
		tlen, flags = trendHeaderLen+8*len(e.trend.slots), flagHasTrend
	}
	b = slices.Grow(b, sketchHeaderLen+4+dlen+4+tlen)
	st := e.acc.State()
	b = binary.LittleEndian.AppendUint32(b, sketchMagic)
	b = append(b, sketchV1, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.N))
	b = appendF64(b, st.Mean)
	b = appendF64(b, st.M2)
	b = appendF64(b, st.Min)
	b = appendF64(b, st.Max)
	b = binary.LittleEndian.AppendUint32(b, uint32(dlen))
	b = e.dig.appendBinary(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(tlen))
	if e.trend != nil {
		b = e.trend.appendBinary(b)
	}
	return b
}

// UnmarshalEpochSketch reconstructs an estimator sketch, validating every
// layer.
func UnmarshalEpochSketch(b []byte) (*EpochSketch, error) {
	if len(b) < sketchHeaderLen+8 {
		return nil, badf("sketch truncated: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != sketchMagic {
		return nil, badf("sketch magic mismatch")
	}
	if b[4] != sketchV1 {
		return nil, badf("unsupported sketch version %d", b[4])
	}
	flags := b[5]
	st := stats.AccumState{
		N:    int64(binary.LittleEndian.Uint64(b[6:])),
		Mean: getF64(b[14:]),
		M2:   getF64(b[22:]),
		Min:  getF64(b[30:]),
		Max:  getF64(b[38:]),
	}
	if st.N < 0 {
		return nil, badf("accum count negative")
	}
	off := sketchHeaderLen
	dlen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if dlen < 0 || off+dlen > len(b) {
		return nil, badf("digest segment overruns buffer")
	}
	dig, err := UnmarshalDigest(b[off : off+dlen])
	if err != nil {
		return nil, err
	}
	off += dlen
	if off+4 > len(b) {
		return nil, badf("trend segment header missing")
	}
	tlen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if tlen < 0 || off+tlen != len(b) {
		return nil, badf("trend segment length %d != remaining %d", tlen, len(b)-off)
	}
	e := &EpochSketch{dig: dig, acc: stats.AccumFromState(st)}
	if flags&flagHasTrend != 0 {
		tr, err := unmarshalTrend(b[off:])
		if err != nil {
			return nil, err
		}
		e.trend = tr
	} else if tlen != 0 {
		return nil, badf("trend bytes present without flag")
	}
	return e, nil
}
