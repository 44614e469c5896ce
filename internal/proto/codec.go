package proto

import (
	"strconv"

	"repro/internal/jsonc"
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
	b = jsonc.AppendString(b, string(e.Kind))
	if e.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, e.Epoch, 10)
	}
	if tc := e.Trace; tc != nil {
		b = append(b, `,"trace":{`...)
		sep := len(b)
		if tc.TraceID != "" {
			b = append(b, `"trace_id":`...)
			b = jsonc.AppendString(b, tc.TraceID)
		}
		if tc.SpanID != "" {
			if len(b) > sep {
				b = append(b, ',')
			}
			b = append(b, `"span_id":`...)
			b = jsonc.AppendString(b, tc.SpanID)
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
		b = jsonc.AppendString(b, h.JobID)
		if h.TypeName != "" {
			b = append(b, `,"type_name":`...)
			b = jsonc.AppendString(b, h.TypeName)
		}
		b = append(b, `,"nodes":`...)
		b = strconv.AppendInt(b, int64(h.Nodes), 10)
		b = append(b, '}')
	}
	if u := e.ModelUpdate; u != nil {
		b = append(b, `,"model_update":{"job_id":`...)
		b = jsonc.AppendString(b, u.JobID)
		b = jsonc.AppendFloat(append(b, `,"a":`...), u.A)
		b = jsonc.AppendFloat(append(b, `,"b":`...), u.B)
		b = jsonc.AppendFloat(append(b, `,"c":`...), u.C)
		b = jsonc.AppendFloat(append(b, `,"p_min_watts":`...), u.PMinWatts)
		b = jsonc.AppendFloat(append(b, `,"p_max_watts":`...), u.PMaxWatts)
		b = strconv.AppendBool(append(b, `,"trained":`...), u.Trained)
		b = strconv.AppendInt(append(b, `,"epochs":`...), u.Epochs, 10)
		b = jsonc.AppendFloat(append(b, `,"power_watts":`...), u.PowerWatts)
		b = strconv.AppendInt(append(b, `,"timestamp_unix_nano":`...), u.TimestampUnixNano, 10)
		b = append(b, '}')
	}
	if s := e.SetBudget; s != nil {
		b = append(b, `,"set_budget":{"job_id":`...)
		b = jsonc.AppendString(b, s.JobID)
		b = jsonc.AppendFloat(append(b, `,"power_cap_watts":`...), s.PowerCapWatts)
		b = append(b, '}')
	}
	if g := e.Goodbye; g != nil {
		b = append(b, `,"goodbye":{"job_id":`...)
		b = jsonc.AppendString(b, g.JobID)
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
	return jsonc.CheckFinite(fs[:]...)
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
	d := decoder{jsonc.NewDecoder(body)}
	var e Envelope
	ok := d.Object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			return d.kind(&e.Kind)
		case "epoch":
			return d.Uint64(&e.Epoch)
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
			return d.Object(func(key []byte) bool {
				return string(key) == "job_id" && d.Str(&e.Goodbye.JobID)
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
	if !ok || !d.Done() {
		return Envelope{}, false
	}
	d.CopyStrings()
	return e, true
}

// decoder is decodeEnvelope's cursor over one body.
type decoder struct{ jsonc.Decoder }

func (d *decoder) trace(tc *obs.TraceContext) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "trace_id":
			return d.Str(&tc.TraceID)
		case "span_id":
			return d.Str(&tc.SpanID)
		case "root_ns":
			return d.Int64(&tc.RootStartUnixNano)
		}
		return false
	})
}

func (d *decoder) hello(h *Hello) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.Str(&h.JobID)
		case "type_name":
			return d.Str(&h.TypeName)
		case "nodes":
			return d.Int(&h.Nodes)
		}
		return false
	})
}

func (d *decoder) modelUpdate(u *ModelUpdate) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.Str(&u.JobID)
		case "a":
			return d.Float(&u.A)
		case "b":
			return d.Float(&u.B)
		case "c":
			return d.Float(&u.C)
		case "p_min_watts":
			return d.Float(&u.PMinWatts)
		case "p_max_watts":
			return d.Float(&u.PMaxWatts)
		case "trained":
			return d.Bool(&u.Trained)
		case "epochs":
			return d.Int64(&u.Epochs)
		case "power_watts":
			return d.Float(&u.PowerWatts)
		case "timestamp_unix_nano":
			return d.Int64(&u.TimestampUnixNano)
		}
		return false
	})
}

func (d *decoder) setBudget(s *SetBudget) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "job_id":
			return d.Str(&s.JobID)
		case "power_cap_watts":
			return d.Float(&s.PowerCapWatts)
		}
		return false
	})
}

// probe parses a Ping or a Pong, which share one shape.
func (d *decoder) probe(seq *uint64, tsNs *int64) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return d.Uint64(seq)
		case "timestamp_unix_nano":
			return d.Int64(tsNs)
		}
		return false
	})
}

// knownKinds are the kinds decodeEnvelope returns without allocating.
var knownKinds = [...]Kind{KindHello, KindModelUpdate, KindSetBudget, KindGoodbye, KindPing, KindPong}

func (d *decoder) kind(k *Kind) bool {
	lit, ok := d.Span()
	if !ok {
		return false
	}
	for _, known := range knownKinds {
		if string(lit) == string(known) {
			*k = known
			return true
		}
	}
	*k = Kind(lit)
	return true
}
