package proto

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// appendEnvelope appends e's JSON encoding to dst without reflection. The
// bytes equal json.Marshal(e): the same key order, omitempty rules, float
// format and string escaping. A NaN or infinite float is an error, as it
// is for json.Marshal.
func appendEnvelope(dst []byte, e *Envelope) ([]byte, error) {
	if err := checkFinite(e); err != nil {
		return dst, err
	}
	b := append(dst, `{"kind":`...)
	b = appendString(b, string(e.Kind))
	if e.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, e.Epoch, 10)
	}
	if tc := e.Trace; tc != nil {
		b = append(b, `,"trace":{`...)
		sep := len(b)
		if tc.TraceID != "" {
			b = append(b, `"trace_id":`...)
			b = appendString(b, tc.TraceID)
		}
		if tc.SpanID != "" {
			if len(b) > sep {
				b = append(b, ',')
			}
			b = append(b, `"span_id":`...)
			b = appendString(b, tc.SpanID)
		}
		if tc.RootStartUnixNano != 0 {
			if len(b) > sep {
				b = append(b, ',')
			}
			b = append(b, `"root_ns":`...)
			b = strconv.AppendInt(b, tc.RootStartUnixNano, 10)
		}
		b = append(b, '}')
	}
	if h := e.Hello; h != nil {
		b = append(b, `,"hello":{"job_id":`...)
		b = appendString(b, h.JobID)
		if h.TypeName != "" {
			b = append(b, `,"type_name":`...)
			b = appendString(b, h.TypeName)
		}
		b = append(b, `,"nodes":`...)
		b = strconv.AppendInt(b, int64(h.Nodes), 10)
		b = append(b, '}')
	}
	if u := e.ModelUpdate; u != nil {
		b = append(b, `,"model_update":{"job_id":`...)
		b = appendString(b, u.JobID)
		b = appendFloat(append(b, `,"a":`...), u.A)
		b = appendFloat(append(b, `,"b":`...), u.B)
		b = appendFloat(append(b, `,"c":`...), u.C)
		b = appendFloat(append(b, `,"p_min_watts":`...), u.PMinWatts)
		b = appendFloat(append(b, `,"p_max_watts":`...), u.PMaxWatts)
		b = strconv.AppendBool(append(b, `,"trained":`...), u.Trained)
		b = strconv.AppendInt(append(b, `,"epochs":`...), u.Epochs, 10)
		b = appendFloat(append(b, `,"power_watts":`...), u.PowerWatts)
		b = strconv.AppendInt(append(b, `,"timestamp_unix_nano":`...), u.TimestampUnixNano, 10)
		b = append(b, '}')
	}
	if s := e.SetBudget; s != nil {
		b = append(b, `,"set_budget":{"job_id":`...)
		b = appendString(b, s.JobID)
		b = appendFloat(append(b, `,"power_cap_watts":`...), s.PowerCapWatts)
		b = append(b, '}')
	}
	if g := e.Goodbye; g != nil {
		b = append(b, `,"goodbye":{"job_id":`...)
		b = appendString(b, g.JobID)
		b = append(b, '}')
	}
	if p := e.Ping; p != nil {
		b = appendProbe(append(b, `,"ping":`...), p.Seq, p.TimestampUnixNano)
	}
	if p := e.Pong; p != nil {
		b = appendProbe(append(b, `,"pong":`...), p.Seq, p.TimestampUnixNano)
	}
	return append(b, '}'), nil
}

// appendProbe encodes a Ping or a Pong, which share one shape.
func appendProbe(b []byte, seq uint64, tsNs int64) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), seq, 10)
	if tsNs != 0 {
		b = strconv.AppendInt(append(b, `,"timestamp_unix_nano":`...), tsNs, 10)
	}
	return append(b, '}')
}

// checkFinite returns json.Marshal's error for the first NaN or infinite
// float in e, nil when there is none.
func checkFinite(e *Envelope) error {
	var fs [7]float64 // in encoding order: ModelUpdate's floats, then SetBudget's
	if u := e.ModelUpdate; u != nil {
		fs = [7]float64{u.A, u.B, u.C, u.PMinWatts, u.PMaxWatts, u.PowerWatts}
	}
	if s := e.SetBudget; s != nil {
		fs[6] = s.PowerCapWatts
	}
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// appendFloat formats a finite float as encoding/json does: shortest
// round-trip digits, in 'e' form below 1e-6 and from 1e21 up, with a
// two-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
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

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes is copied as it is; any other
// string is left to json.Marshal, which escapes control bytes, quotes,
// backslashes, HTML-significant characters and invalid UTF-8.
func appendString(b []byte, s string) []byte {
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

// decodeEnvelope parses the canonical compact form json.Marshal writes:
// keys spelled exactly as the struct tags give them, no whitespace,
// strings of printable ASCII without escapes, numbers that match the JSON
// grammar and fit their field, no null, no duplicate or unknown key and
// nothing after the closing brace. It reports false for any other input,
// which the caller hands to json.Unmarshal; whenever it reports true, the
// envelope equals what json.Unmarshal returns for the same body. Strings
// are copied out of body, which the caller may then reuse.
func decodeEnvelope(body []byte) (Envelope, bool) {
	d := decoder{b: body}
	var e Envelope
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			return d.kind(&e.Kind)
		case "epoch":
			return d.uint64(&e.Epoch)
		case "trace":
			e.Trace = new(obs.TraceContext)
			return d.trace(e.Trace)
		case "hello":
			e.Hello = new(Hello)
			return d.hello(e.Hello)
		case "model_update":
			e.ModelUpdate = new(ModelUpdate)
			return d.modelUpdate(e.ModelUpdate)
		case "set_budget":
			e.SetBudget = new(SetBudget)
			return d.setBudget(e.SetBudget)
		case "goodbye":
			e.Goodbye = new(Goodbye)
			return d.object(func(key []byte) bool {
				return string(key) == "job_id" && d.str(&e.Goodbye.JobID)
			})
		case "ping":
			e.Ping = new(Ping)
			return d.probe(&e.Ping.Seq, &e.Ping.TimestampUnixNano)
		case "pong":
			e.Pong = new(Pong)
			return d.probe(&e.Pong.Seq, &e.Pong.TimestampUnixNano)
		}
		return false
	})
	if !ok || d.i != len(body) {
		return Envelope{}, false
	}
	d.copyStrings()
	return e, true
}

// decoder is decodeEnvelope's cursor over one body.
type decoder struct {
	b []byte
	i int
	// strs are the payload strings read so far, as spans of b. They are
	// copied out together, into one allocation, once the body has parsed.
	strs [7]strSpan
	n    int
}

// strSpan is a string field's destination and its bytes in the body.
type strSpan struct {
	dst    *string
	lo, hi int
}

// maxObjectKeys is the most keys any envelope object has (ModelUpdate's
// ten).
const maxObjectKeys = 10

// object parses {"key":value,...}, calling field with each key and the
// cursor on its value. field reports whether it read a value for a key
// it knows. An empty object is accepted; a repeated key is not.
func (d *decoder) object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen [maxObjectKeys][]byte
	for n := 0; n < maxObjectKeys; n++ {
		lo, hi, ok := d.span()
		if !ok || !d.next(':') {
			return false
		}
		key := d.b[lo:hi]
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

func (d *decoder) trace(tc *obs.TraceContext) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "trace_id":
			return d.str(&tc.TraceID)
		case "span_id":
			return d.str(&tc.SpanID)
		case "root_ns":
			return d.int64(&tc.RootStartUnixNano)
		}
		return false
	})
}

func (d *decoder) hello(h *Hello) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.str(&h.JobID)
		case "type_name":
			return d.str(&h.TypeName)
		case "nodes":
			lit, ok := d.number()
			n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
			h.Nodes = int(n)
			return ok && err == nil
		}
		return false
	})
}

func (d *decoder) modelUpdate(u *ModelUpdate) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.str(&u.JobID)
		case "a":
			return d.float(&u.A)
		case "b":
			return d.float(&u.B)
		case "c":
			return d.float(&u.C)
		case "p_min_watts":
			return d.float(&u.PMinWatts)
		case "p_max_watts":
			return d.float(&u.PMaxWatts)
		case "trained":
			return d.bool(&u.Trained)
		case "epochs":
			return d.int64(&u.Epochs)
		case "power_watts":
			return d.float(&u.PowerWatts)
		case "timestamp_unix_nano":
			return d.int64(&u.TimestampUnixNano)
		}
		return false
	})
}

func (d *decoder) setBudget(s *SetBudget) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.str(&s.JobID)
		case "power_cap_watts":
			return d.float(&s.PowerCapWatts)
		}
		return false
	})
}

// probe parses a Ping or a Pong, which share one shape.
func (d *decoder) probe(seq *uint64, tsNs *int64) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return d.uint64(seq)
		case "timestamp_unix_nano":
			return d.int64(tsNs)
		}
		return false
	})
}

// next consumes c if it is the next byte.
func (d *decoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// span consumes a string of printable ASCII without escapes and returns
// the bounds of its contents.
func (d *decoder) span() (lo, hi int, ok bool) {
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

// str reads a string into *dst; the bytes are copied by copyStrings.
func (d *decoder) str(dst *string) bool {
	lo, hi, ok := d.span()
	if !ok || d.n == len(d.strs) {
		return false
	}
	d.strs[d.n] = strSpan{dst: dst, lo: lo, hi: hi}
	d.n++
	return true
}

// copyStrings copies every string read into one new string and points
// each destination at its part.
func (d *decoder) copyStrings() {
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

// knownKinds are the kinds decodeEnvelope returns without allocating.
var knownKinds = [...]Kind{KindHello, KindModelUpdate, KindSetBudget, KindGoodbye, KindPing, KindPong}

func (d *decoder) kind(k *Kind) bool {
	lo, hi, ok := d.span()
	if !ok {
		return false
	}
	for _, known := range knownKinds {
		if string(d.b[lo:hi]) == string(known) {
			*k = known
			return true
		}
	}
	*k = Kind(d.b[lo:hi])
	return true
}

func (d *decoder) bool(dst *bool) bool {
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

func (d *decoder) float(dst *float64) bool {
	lit, ok := d.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return ok && err == nil
}

func (d *decoder) int64(dst *int64) bool {
	lit, ok := d.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return ok && err == nil
}

func (d *decoder) uint64(dst *uint64) bool {
	lit, ok := d.number()
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return ok && err == nil
}

// number consumes a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strconv never sees
// a form JSON does not allow (a leading '+' or zero, hex, underscores,
// "Inf"). The caller's parse decides whether the value fits its field.
func (d *decoder) number() ([]byte, bool) {
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
