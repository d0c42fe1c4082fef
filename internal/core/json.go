package core

import (
	"bytes"
	"errors"
	"math"
	"strconv"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/trace"
)

// A Record has one JSON codec, built on trace's JSON writers and Canon reader
// (trace/json.go) and held to encoding/json: a zone list is a few hundred
// records, nearly every byte the read plane moves.
//
// AppendRecordJSON writes byte for byte what json.Marshal(Record) returns and
// refuses what it refuses (NaN, ±Inf, a time RFC 3339 cannot say). A
// zone-list reply and an estimate reply without a sketch (wire.Conn.Send)
// are built with it.
//
// ParseRecordJSON is its strict inverse. It reads only the canonical form,
// the one spelling the encoder emits when Net and Metric are printable ASCII
// with no quote or backslash:
//
//	record = `{"Key":{"Zone":{"x":` int `,"y":` int `},"Net":` string `,"Metric":` string
//	         `},"MeanValue":` number `,"StdDev":` number `,"Samples":` int
//	         `,"P50":` number `,"P90":` number `,"P99":` number `,"UpdatedAt":` time `}`
//	int    = [ `-` ] ( `0` | digit1-9 { digit } )
//	time   = a string, as (*time.Time).UnmarshalJSON reads it
//
// with string and number as Canon reads them (trace/json.go): no
// whitespace, this key order and case, no other key. It declines everything
// else. What it accepts it decodes to exactly what json.Unmarshal yields from
// the same bytes. An integer is grammar-checked and then read by strconv.ParseInt at
// its field's width (32 bits for a zone coordinate, 64 for Samples), a number
// by strconv.ParseFloat, a time by (*time.Time).UnmarshalJSON: the calls
// encoding/json makes. A value any of them refuses is declined. A declined
// input is the caller's to hand to encoding/json, which stays the decoder
// for every other spelling and the oracle the tests compare against. A field
// added to Record or Key has to be added to both halves;
// TestRecordEncoderMatchesJSON fails until it is.

// AppendRecordJSON appends the JSON object for r to buf, allocating nothing
// when buf has the room. On an error buf comes back unextended.
func AppendRecordJSON(buf []byte, r Record) ([]byte, error) {
	for _, f := range [...]float64{r.MeanValue, r.StdDev, r.P50, r.P90, r.P99} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return buf, errors.New("unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	start := len(buf)
	buf = AppendZoneJSON(append(buf, `{"Key":{"Zone":`...), r.Key.Zone)
	buf = append(buf, `,"Net":`...)
	buf = trace.AppendStringJSON(buf, string(r.Key.Net))
	buf = append(buf, `,"Metric":`...)
	buf = trace.AppendStringJSON(buf, string(r.Key.Metric))
	buf = append(buf, `},"MeanValue":`...)
	buf = trace.AppendJSONFloat(buf, r.MeanValue)
	buf = append(buf, `,"StdDev":`...)
	buf = trace.AppendJSONFloat(buf, r.StdDev)
	buf = append(buf, `,"Samples":`...)
	buf = strconv.AppendInt(buf, r.Samples, 10)
	buf = append(buf, `,"P50":`...)
	buf = trace.AppendJSONFloat(buf, r.P50)
	buf = append(buf, `,"P90":`...)
	buf = trace.AppendJSONFloat(buf, r.P90)
	buf = append(buf, `,"P99":`...)
	buf = trace.AppendJSONFloat(buf, r.P99)
	buf = append(buf, `,"UpdatedAt":"`...)
	buf, err := trace.AppendJSONTime(buf, r.UpdatedAt)
	if err != nil {
		return buf[:start], err
	}
	return append(buf, `"}`...), nil
}

// AppendZoneJSON appends a zone's JSON object, `{"x":` int `,"y":` int `}`,
// as a record's key and the wire's zone reports and estimate requests hold
// it.
func AppendZoneJSON(buf []byte, z geo.ZoneID) []byte {
	buf = strconv.AppendInt(append(buf, `{"x":`...), int64(z.X), 10)
	buf = strconv.AppendInt(append(buf, `,"y":`...), int64(z.Y), 10)
	return append(buf, '}')
}

// ParseZoneJSON reads the object AppendZoneJSON writes off the head of c,
// each coordinate read at 32 bits.
func ParseZoneJSON(c *trace.Canon) (z geo.ZoneID) {
	c.Lit(`{"x":`)
	z.X = int32(c.Int(32))
	c.Lit(`,"y":`)
	z.Y = int32(c.Int(32))
	c.Lit(`}`)
	return z
}

// AppendRecordsJSON appends the JSON array for rs to buf — `null` for a nil
// slice, as encoding/json writes it. On an error buf comes back unextended.
func AppendRecordsJSON(buf []byte, rs []Record) ([]byte, error) {
	if rs == nil {
		return append(buf, "null"...), nil
	}
	start := len(buf)
	buf = append(buf, '[')
	for i := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = AppendRecordJSON(buf, rs[i]); err != nil {
			return buf[:start], err
		}
	}
	return append(buf, ']'), nil
}

// ParseRecordJSON reads one canonical record object off the head of c into
// *r, which must be zero. A Net or Metric equal to prev's shares prev's
// string. If c.Declined is set afterwards, *r holds nothing of use.
func ParseRecordJSON(c *trace.Canon, r, prev *Record) {
	c.Lit(`{"Key":{"Zone":`)
	r.Key.Zone = ParseZoneJSON(c)
	c.Lit(`,"Net":`)
	r.Key.Net = radio.NetworkID(c.String(string(prev.Key.Net)))
	c.Lit(`,"Metric":`)
	r.Key.Metric = trace.Metric(c.String(string(prev.Key.Metric)))
	c.Lit(`},"MeanValue":`)
	r.MeanValue = c.Number()
	c.Lit(`,"StdDev":`)
	r.StdDev = c.Number()
	c.Lit(`,"Samples":`)
	r.Samples = c.Int(64)
	c.Lit(`,"P50":`)
	r.P50 = c.Number()
	c.Lit(`,"P90":`)
	r.P90 = c.Number()
	c.Lit(`,"P99":`)
	r.P99 = c.Number()
	c.Lit(`,"UpdatedAt":`)
	r.UpdatedAt = c.Time()
	c.Lit(`}`)
}

// recordOpen is how every canonical record starts and nothing inside one
// can: a canonical string holds no quote.
const recordOpen = `{"Key":{"Zone":{"x":`

// minRecordJSON is shorter than any canonical record: one with an empty time.
const minRecordJSON = len(`{"Key":{"Zone":{"x":0,"y":0},"Net":"","Metric":""},"MeanValue":0,"StdDev":0,"Samples":0,"P50":0,"P90":0,"P99":0,"UpdatedAt":""}`)

// ParseRecordsJSON reads a canonical record array, or null, off the head of
// c, to what json.Unmarshal makes of it into a nil []Record: nil for null,
// an empty slice for [], and otherwise a slice allocated once. Its capacity
// is one more than the number of record openings left in the input once the
// first record is read, which is exact for canonical input, and at most the
// number of records that many bytes could spell, so no input buys more slice
// than it is long. Each record may share the strings of the one before it.
func ParseRecordsJSON(c *trace.Canon) []Record {
	if c.TryLit(`null`) {
		return nil
	}
	c.Lit(`[`)
	if c.Declined {
		return nil
	}
	if c.TryLit(`]`) {
		return []Record{}
	}
	// The first record is read before the slice is sized, so a list that is
	// not canonical from its first record on (a network that needs an
	// escape, say) is declined without paying for one.
	var first Record
	ParseRecordJSON(c, &first, &Record{})
	if c.Declined {
		return nil
	}
	n := min(bytes.Count(c.B, []byte(recordOpen)), len(c.B)/minRecordJSON)
	records := make([]Record, 1, 1+n)
	records[0] = first
	for c.TryLit(`,`) {
		records = append(records, Record{})
		ParseRecordJSON(c, &records[len(records)-1], &records[len(records)-2])
		if c.Declined {
			return nil
		}
	}
	c.Lit(`]`)
	return records
}
