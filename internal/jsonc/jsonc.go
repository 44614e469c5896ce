// Package jsonc writes and reads the canonical compact JSON that
// encoding/json's Marshal produces, without reflection. It holds the
// generic half of a hand-written codec: the float and string formats on
// the encoding side, and a cursor over one body on the decoding side.
// Each user (proto's Envelope, durable's Record) writes its own keys in
// struct-tag order on top of it.
//
// The decoder accepts only the canonical form: keys spelled exactly as
// the struct tags give them, no whitespace, strings of printable ASCII
// without escapes, numbers that match the JSON grammar and fit their
// field, no null, no duplicate or unknown key. A caller reports any other
// body as not decoded and hands it to json.Unmarshal, so what it returns
// never depends on which path read the body.
package jsonc

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// CheckFinite returns json.Marshal's error for the first NaN or infinite
// value in fs, nil when there is none. Callers pass their floats in
// encoding order, so the message names the one json.Marshal would.
func CheckFinite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// AppendFloat formats a finite float as encoding/json does: shortest
// round-trip digits, in 'e' form below 1e-6 and from 1e21 up, with a
// two-digit negative exponent written without its leading zero.
func AppendFloat(b []byte, f float64) []byte {
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

// AppendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes is copied as it is; any other
// string is left to json.Marshal, which escapes control bytes, quotes,
// backslashes, HTML-significant characters and invalid UTF-8.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Decoder is a cursor over one canonical body. Strings it reads are
// copied out of the body by CopyStrings, after which the caller may
// reuse the body.
type Decoder struct {
	b []byte
	i int
	// strs are the strings read so far, as spans of b. They are copied
	// out together, into one allocation, once the body has parsed.
	strs [maxStrings]strSpan
	n    int
}

// maxStrings is the most string fields one body may hold (an envelope's
// seven).
const maxStrings = 7

// maxObjectKeys is the most keys one object may have (durable.Record's
// thirteen).
const maxObjectKeys = 13

// strSpan is a string field's destination and its bytes in the body.
type strSpan struct {
	dst    *string
	lo, hi int
}

// NewDecoder returns a cursor at the start of body.
func NewDecoder(body []byte) Decoder { return Decoder{b: body} }

// Done reports whether the cursor has consumed the whole body.
func (d *Decoder) Done() bool { return d.i == len(d.b) }

// Object parses {"key":value,...}, calling field with each key and the
// cursor on its value. field reports whether it read a value for a key
// it knows. An empty object is accepted; a repeated key is not.
func (d *Decoder) Object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen [maxObjectKeys][]byte
	for n := 0; n < maxObjectKeys; n++ {
		key, ok := d.Span()
		if !ok || !d.next(':') {
			return false
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !field(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
	return false
}

// next consumes c if it is the next byte.
func (d *Decoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// Span consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (d *Decoder) Span() ([]byte, bool) {
	lo, hi, ok := d.span()
	return d.b[lo:hi], ok
}

func (d *Decoder) span() (lo, hi int, ok bool) {
	if !d.next('"') {
		return 0, 0, false
	}
	for lo = d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return lo, d.i - 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// Str reads a string into *dst; the bytes are copied by CopyStrings.
func (d *Decoder) Str(dst *string) bool {
	lo, hi, ok := d.span()
	if !ok || d.n == len(d.strs) {
		return false
	}
	d.strs[d.n] = strSpan{dst: dst, lo: lo, hi: hi}
	d.n++
	return true
}

// CopyStrings copies every string read into one new string and points
// each destination at its part. It allocates nothing when every string
// read is empty.
func (d *Decoder) CopyStrings() {
	total := 0
	for _, s := range d.strs[:d.n] {
		total += s.hi - s.lo
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, s := range d.strs[:d.n] {
		sb.Write(d.b[s.lo:s.hi])
	}
	all, off := sb.String(), 0
	for _, s := range d.strs[:d.n] {
		*s.dst = all[off : off+s.hi-s.lo]
		off += s.hi - s.lo
	}
}

// Bool reads true or false.
func (d *Decoder) Bool(dst *bool) bool {
	switch rest := d.b[d.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst = true
		d.i += 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst = false
		d.i += 5
	default:
		return false
	}
	return true
}

// Float reads a number that parses as a finite float64.
func (d *Decoder) Float(dst *float64) bool {
	lit, ok := d.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return ok && err == nil
}

// Int reads an integer that fits an int.
func (d *Decoder) Int(dst *int) bool {
	lit, ok := d.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(n)
	return ok && err == nil
}

// Int64 reads an integer that fits an int64.
func (d *Decoder) Int64(dst *int64) bool {
	lit, ok := d.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return ok && err == nil
}

// Uint64 reads a non-negative integer that fits a uint64.
func (d *Decoder) Uint64(dst *uint64) bool {
	lit, ok := d.number()
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return ok && err == nil
}

// number consumes a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strconv never sees
// a form JSON does not allow (a leading '+' or zero, hex, underscores,
// "Inf"). The caller's parse decides whether the value fits its field.
func (d *Decoder) number() ([]byte, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[d.i:i]
	d.i = i
	return lit, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
