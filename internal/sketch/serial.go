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

// unmarshal decodes a digest into d, validating structure so corrupt or
// adversarial bytes yield an error, never a poisoned digest. It reuses d's
// backing array when its capacity is the one NewDigest gives the decoded
// compression, and otherwise makes that array: AddWeighted compresses when
// the array is full, so its capacity is part of the digest's state, and a
// reused array of another capacity would move every later compression. On
// error d is left unspecified.
func (d *Digest) unmarshal(b []byte) error {
	if len(b) < digestHeaderLen {
		return badf("digest truncated: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != digestMagic {
		return badf("digest magic mismatch")
	}
	if b[4] != digestV1 {
		return badf("unsupported digest version %d", b[4])
	}
	compression := getF64(b[5:])
	min := getF64(b[13:])
	max := getF64(b[21:])
	count := getF64(b[29:])
	n := int(binary.LittleEndian.Uint16(b[37:]))
	if math.IsNaN(compression) || compression < minCompression || compression > 1e6 {
		return badf("compression %v out of range", compression)
	}
	if math.IsNaN(min) || math.IsInf(min, 0) || math.IsNaN(max) || math.IsInf(max, 0) || min > max {
		return badf("min/max invalid")
	}
	if math.IsNaN(count) || math.IsInf(count, 0) || count < 0 {
		return badf("count invalid")
	}
	maxStored := maxStoredFor(compression)
	if n > maxStored {
		return badf("%d centroids exceeds capacity %d", n, maxStored)
	}
	if len(b) != digestHeaderLen+16*n {
		return badf("digest length %d != expected %d", len(b), digestHeaderLen+16*n)
	}
	if c := maxStored + tailCapFor(compression); cap(d.store) != c {
		d.store = make([]Centroid, 0, c)
	}
	d.compression, d.maxStored = compression, maxStored
	d.Reset()
	if n == 0 {
		if count != 0 {
			return badf("empty digest with nonzero count")
		}
		return nil
	}
	sum := 0.0
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		off := digestHeaderLen + 16*i
		mean := getF64(b[off:])
		weight := getF64(b[off+8:])
		if math.IsNaN(mean) || math.IsInf(mean, 0) || mean < prev {
			return badf("centroid %d mean invalid or unsorted", i)
		}
		if math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
			return badf("centroid %d weight invalid", i)
		}
		if mean < min || mean > max {
			return badf("centroid %d mean outside [min, max]", i)
		}
		d.store = append(d.store, Centroid{Mean: mean, Weight: weight})
		sum += weight
		prev = mean
	}
	if diff := math.Abs(sum - count); diff > 1e-6*(1+math.Abs(count)) {
		return badf("count %v inconsistent with centroid weights %v", count, sum)
	}
	d.nc = n
	d.count = count
	d.min, d.max = min, max
	return nil
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

// unmarshal decodes a ring into t, reusing its slots when there are as many
// as the decoded ring's. Every slot is written, so none keeps a value from
// before. On error t is left unspecified.
func (t *Trend) unmarshal(b []byte) error {
	if len(b) < trendHeaderLen {
		return badf("trend truncated: %d bytes", len(b))
	}
	if b[0] != trendV1 {
		return badf("unsupported trend version %d", b[0])
	}
	nslots := int(binary.LittleEndian.Uint16(b[1:]))
	base := time.Duration(binary.LittleEndian.Uint64(b[3:]))
	t0ns := int64(binary.LittleEndian.Uint64(b[11:]))
	last := int(int32(binary.LittleEndian.Uint32(b[19:])))
	if nslots < 2 || nslots > 1<<14 {
		return badf("trend slot count %d out of range", nslots)
	}
	if base <= 0 {
		return badf("trend base %v invalid", base)
	}
	if last < -1 || last >= nslots {
		return badf("trend last index %d out of range", last)
	}
	if len(b) != trendHeaderLen+8*nslots {
		return badf("trend length %d != expected %d", len(b), trendHeaderLen+8*nslots)
	}
	if len(t.slots) != nslots {
		t.slots = make([]trendSlot, nslots)
	}
	t.base, t.last, t.t0 = base, last, time.Time{}
	if last >= 0 {
		t.t0 = time.Unix(0, t0ns)
	}
	for i := 0; i < nslots; i++ {
		off := trendHeaderLen + 8*i
		mean := math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		n := binary.LittleEndian.Uint32(b[off+4:])
		if n > 0 && (math.IsNaN(float64(mean)) || math.IsInf(float64(mean), 0)) {
			return badf("trend slot %d mean invalid", i)
		}
		if n > 0 && i > last {
			return badf("trend slot %d filled past last=%d", i, last)
		}
		t.slots[i] = trendSlot{mean: mean, n: n}
	}
	return nil
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
	e := new(EpochSketch)
	if err := e.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return e, nil
}

// UnmarshalBinary decodes a sketch into e, validating every layer as
// UnmarshalEpochSketch does. It reuses e's digest array and trend slots
// where they fit the decoded sketch (see Digest.unmarshal), so decoding
// again and again into one sketch allocates nothing once the sketches it
// has held match the ones it reads. e keeps nothing of b. On error e is
// left unspecified: a caller discards it, or decodes into it again.
func (e *EpochSketch) UnmarshalBinary(b []byte) error {
	if len(b) < sketchHeaderLen+8 {
		return badf("sketch truncated: %d bytes", len(b))
	}
	if binary.LittleEndian.Uint32(b) != sketchMagic {
		return badf("sketch magic mismatch")
	}
	if b[4] != sketchV1 {
		return badf("unsupported sketch version %d", b[4])
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
		return badf("accum count negative")
	}
	off := sketchHeaderLen
	dlen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if dlen < 0 || off+dlen > len(b) {
		return badf("digest segment overruns buffer")
	}
	if e.dig == nil {
		e.dig = new(Digest)
	}
	if err := e.dig.unmarshal(b[off : off+dlen]); err != nil {
		return err
	}
	off += dlen
	if off+4 > len(b) {
		return badf("trend segment header missing")
	}
	tlen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if tlen < 0 || off+tlen != len(b) {
		return badf("trend segment length %d != remaining %d", tlen, len(b)-off)
	}
	e.acc = stats.AccumFromState(st)
	if flags&flagHasTrend != 0 {
		if e.trend == nil {
			e.trend = new(Trend)
		}
		return e.trend.unmarshal(b[off:])
	}
	if tlen != 0 {
		return badf("trend bytes present without flag")
	}
	e.trend = nil
	return nil
}
