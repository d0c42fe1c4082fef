package core

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/radio"
	"repro/internal/trace"
)

// A Record has one hand-spelled codec, a binary form, the body of the wire's
// estimate and zone-list replies (see internal/wire), and JSON is its
// specification:
//
//	record = zone.x · zone.y · net · metric · mean · stddev · p50 · p90 · p99
//	         · samples · updated_at
//
// A zone coordinate is a zig-zag varint, samples a uvarint, a float
// trace.AppendFloatBinary's, a time trace.AppendTimeBinary's, and a network or
// metric trace.AppendName's index into radio.AllNetworks or trace.AllMetrics
// (0 and the name, as JSON carries it, for one the tree does not define).
//
// AppendRecordBinary writes it for every record whose values JSON carries,
// and refuses what JSON refuses (NaN, ±Inf, a time outside years 0–9999:
// trace.ErrNoJSONForm) and a negative sample count, which no controller
// publishes (ErrNegativeSamples). ReadRecordBinary is its canonical,
// fail-closed inverse: what it accepts is what json.Unmarshal makes of the
// record's JSON, its time in UTC, and re-encodes to the same bytes. A field
// added to Record or Key has to be added to both halves;
// TestRecordEncoderMatchesJSON fails until it is.

// MinRecordBinary is the fewest bytes a record takes: two zone coordinates,
// two name indexes, five floats, a sample count and a time's two varints.
const MinRecordBinary = 4 + 5*8 + 1 + 2

// ErrNegativeSamples is AppendRecordBinary's refusal of a record with a
// negative sample count.
var ErrNegativeSamples = errors.New("core: a record with a negative sample count, which its binary form does not carry")

// AppendRecordBinary appends rec's binary form to b. On an error b holds part
// of it: the caller drops what it appended.
func AppendRecordBinary(b []byte, rec Record) ([]byte, error) {
	if rec.Samples < 0 {
		return b, ErrNegativeSamples
	}
	b = binary.AppendVarint(binary.AppendVarint(b, int64(rec.Key.Zone.X)), int64(rec.Key.Zone.Y))
	b = trace.AppendName(trace.AppendName(b, rec.Key.Net, radio.AllNetworks), rec.Key.Metric, trace.AllMetrics)
	for _, f := range [...]float64{rec.MeanValue, rec.StdDev, rec.P50, rec.P90, rec.P99} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, trace.ErrNoJSONForm
		}
		b = trace.AppendFloatBinary(b, f)
	}
	b, ok := trace.AppendTimeBinary(binary.AppendUvarint(b, uint64(rec.Samples)), rec.UpdatedAt)
	if !ok {
		return b, trace.ErrNoJSONForm
	}
	return b, nil
}

// ReadRecordBinary reads one record off the head of r and returns it and the
// reader past it; a malformed record sets the reader's Bad. A network or
// metric the tree defines comes back as its constant's string, so a record
// of known names allocates nothing.
func ReadRecordBinary(r trace.BinReader) (Record, trace.BinReader) {
	var rec Record
	rec.Key.Zone.X, rec.Key.Zone.Y = r.Int32(), r.Int32()
	rec.Key.Net, rec.Key.Metric = trace.ReadName(&r, radio.AllNetworks, ""), trace.ReadName(&r, trace.AllMetrics, "")
	rec.MeanValue, rec.StdDev, rec.P50, rec.P90, rec.P99 = r.Float(), r.Float(), r.Float(), r.Float(), r.Float()
	if rec.Samples = int64(r.Uvarint()); rec.Samples < 0 {
		r.Bad = true
	}
	rec.UpdatedAt = r.Time()
	return rec, r
}
