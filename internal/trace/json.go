package trace

import (
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// JSON writers, and Canon, a reader of the one form they write, for wire's
// small frames and core's records. A writer appends exactly json.Marshal's
// bytes; Canon reads only that form — no whitespace, and
//
//	string = `"` { any byte 0x20–0x7E but `"` and `\` } `"`
//	number = JSON's: [ `-` ] ( `0` | digit1-9 { digit } ) [ `.` digit+ ] [ (`e`|`E`) [ `+`|`-` ] digit+ ]
//
// — to what json.Unmarshal makes of it, declining the rest for encoding/json.

const hexdig = "0123456789abcdef"

// AppendJSONTime is Time.MarshalJSON less its quotes: RFC 3339 with
// nanoseconds, refusing the two things a Go time can hold and RFC 3339
// cannot say.
func AppendJSONTime(b []byte, t time.Time) ([]byte, error) {
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	ts := b[n0:]
	if ts[4] != '-' { // the year must be exactly four digits wide
		return b, errors.New("time: year outside of range [0,9999]")
	}
	if n := len(ts); ts[n-1] != 'Z' {
		// Ends "±hh:mm". A digit where the sign should be is an offset of a
		// hundred hours or more.
		if c := ts[n-6]; ('0' <= c && c <= '9') || 10*(ts[n-5]-'0')+(ts[n-4]-'0') >= 24 {
			return b, errors.New("time: timezone hour outside of range [0,23]")
		}
	}
	return b, nil
}

// AppendJSONFloat formats a finite float64 by encoding/json's rule: the
// shortest digits that round-trip, in ES6 number-to-string form — exponent
// notation below 1e-6 and from 1e21 up, with a one-digit negative exponent
// written e-7, not e-07.
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendStringJSON quotes s by encoding/json's default (HTML-escaping) rule:
// `"` and `\` take a backslash; control characters their short escape or
// \u00XX; <, > and & \u00XX; U+2028 and U+2029 \u202X; and each byte of
// invalid UTF-8 becomes the six characters \ufffd.
func AppendStringJSON(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexdig[c>>4], hexdig[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexdig[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Canon reads canonical-form JSON off the head of B. A mismatch sets Declined
// and turns every later step into a no-op, so a caller spells the form out
// in a straight line and looks at Declined once, before using anything read.
type Canon struct {
	B        []byte
	Declined bool
}

// Lit consumes the literal s.
func (c *Canon) Lit(s string) {
	if !c.TryLit(s) {
		c.Declined = true
	}
}

// TryLit consumes the literal s if B opens with it.
func (c *Canon) TryLit(s string) bool {
	if c.Declined || len(c.B) < len(s) || string(c.B[:len(s)]) != s {
		return false
	}
	c.B = c.B[len(s):]
	return true
}

// quoted consumes a canonical string and returns it with its quotes, as a
// view of B.
func (c *Canon) quoted() []byte {
	if c.Declined || len(c.B) < 2 || c.B[0] != '"' {
		c.Declined = true
		return nil
	}
	for i := 1; i < len(c.B); i++ {
		switch ch := c.B[i]; {
		case ch == '"':
			q := c.B[:i+1]
			c.B = c.B[i+1:]
			return q
		case ch < ' ' || ch > '~' || ch == '\\':
			c.Declined = true
			return nil
		}
	}
	c.Declined = true
	return nil
}

// String consumes a canonical string and returns its value: a copy, or like
// itself when the two are equal — a decoded value never aliases B, but a
// list's items mostly repeat one network and metric, and need not each hold
// their own copy.
func (c *Canon) String(like string) string {
	q := c.quoted()
	if c.Declined {
		return ""
	}
	if v := q[1 : len(q)-1]; string(v) != like {
		return string(v)
	}
	return like
}

// Number consumes a JSON number and returns what encoding/json makes of it.
func (c *Canon) Number() float64 {
	if c.Declined {
		return 0
	}
	// The grammar check comes first: ParseFloat alone also takes "0x10",
	// "Infinity", "1_000", "+1" and ".5". What it refuses of the grammar is
	// out of range, which encoding/json refuses too.
	n := jsonNumberLen(c.B)
	f, err := strconv.ParseFloat(string(c.B[:n]), 64)
	if n == 0 || err != nil {
		c.Declined = true
		return 0
	}
	c.B = c.B[n:]
	return f
}

// Int consumes a JSON integer, [-] (0 | 1-9 digits), and returns what
// encoding/json stores of it in a signed field bits wide: strconv.ParseInt's
// reading at that width, the call it makes. A number that goes on with a
// fraction or an exponent is left for the next step to decline, and one out
// of range is declined here; encoding/json refuses both for an integer field.
func (c *Canon) Int(bits int) int64 {
	if c.Declined {
		return 0
	}
	n := 0
	if n < len(c.B) && c.B[n] == '-' {
		n++
	}
	switch {
	case n < len(c.B) && c.B[n] == '0':
		n++
	case n < len(c.B) && '1' <= c.B[n] && c.B[n] <= '9':
		for n < len(c.B) && '0' <= c.B[n] && c.B[n] <= '9' {
			n++
		}
	default:
		c.Declined = true
		return 0
	}
	v, err := strconv.ParseInt(string(c.B[:n]), 10, bits)
	if err != nil {
		c.Declined = true
		return 0
	}
	c.B = c.B[n:]
	return v
}

// Time consumes a quoted time and returns what encoding/json makes of it:
// (*time.Time).UnmarshalJSON of the quoted bytes, the call it makes.
func (c *Canon) Time() time.Time {
	var t time.Time
	if q := c.quoted(); !c.Declined && t.UnmarshalJSON(q) != nil {
		c.Declined = true
	}
	return t
}

// jsonNumberLen returns the length of the JSON number b opens with:
// [-] (0 | 1-9 digits) [. digits] [(e|E) [+|-] digits], or 0 if it opens
// with none.
func jsonNumberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := digits(i); j > i {
		i = j
	} else {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}
