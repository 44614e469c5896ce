package durable

import (
	"strconv"

	"repro/internal/jsonc"
)

// appendRecord appends rec's JSON encoding to dst without reflection. The
// bytes equal json.Marshal(rec): the same key order, omitempty rules,
// float format and string escaping, so segments written either way read
// the same. A NaN or infinite float is json.Marshal's error, and dst is
// returned as it came.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	var m ModelState
	if rec.Model != nil {
		m = *rec.Model
	}
	// In encoding order; a nil model's zeros pass.
	if err := jsonc.CheckFinite(rec.CapW, rec.PowerW, m.A, m.B, m.C, m.PMinW, m.PMaxW, rec.AvgW, rec.ReserveW); err != nil {
		return dst, err
	}
	b := jsonc.AppendString(append(dst, `{"k":`...), rec.Kind)
	if rec.AtMs != 0 {
		b = strconv.AppendInt(append(b, `,"t":`...), rec.AtMs, 10)
	}
	if rec.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), rec.Epoch, 10)
	}
	if rec.Job != "" {
		b = jsonc.AppendString(append(b, `,"job":`...), rec.Job)
	}
	if rec.Type != "" {
		b = jsonc.AppendString(append(b, `,"type":`...), rec.Type)
	}
	if rec.Nodes != 0 {
		b = strconv.AppendInt(append(b, `,"nodes":`...), int64(rec.Nodes), 10)
	}
	if rec.CapW != 0 {
		b = jsonc.AppendFloat(append(b, `,"cap_w":`...), rec.CapW)
	}
	if rec.PowerW != 0 {
		b = jsonc.AppendFloat(append(b, `,"power_w":`...), rec.PowerW)
	}
	if rec.Throttled {
		b = append(b, `,"throttled":true`...)
	}
	if rec.Reason != "" {
		b = jsonc.AppendString(append(b, `,"reason":`...), rec.Reason)
	}
	if rec.Model != nil {
		b = jsonc.AppendFloat(append(b, `,"model":{"a":`...), m.A)
		b = jsonc.AppendFloat(append(b, `,"b":`...), m.B)
		b = jsonc.AppendFloat(append(b, `,"c":`...), m.C)
		b = jsonc.AppendFloat(append(b, `,"p_min_w":`...), m.PMinW)
		b = jsonc.AppendFloat(append(b, `,"p_max_w":`...), m.PMaxW)
		if m.UpdatedMs != 0 {
			b = strconv.AppendInt(append(b, `,"updated_ms":`...), m.UpdatedMs, 10)
		}
		b = append(b, '}')
	}
	if rec.AvgW != 0 {
		b = jsonc.AppendFloat(append(b, `,"avg_w":`...), rec.AvgW)
	}
	if rec.ReserveW != 0 {
		b = jsonc.AppendFloat(append(b, `,"reserve_w":`...), rec.ReserveW)
	}
	return append(b, '}'), nil
}

// decodeRecord sets *rec from payload when payload is in the canonical
// compact form json.Marshal writes (see jsonc), with a known kind, no
// unknown key and nothing after the closing brace, and reports true;
// the record then equals what json.Unmarshal returns for the same
// payload. Any other payload leaves *rec zero and reports false, for the
// caller to hand to json.Unmarshal. Strings are copied out of payload,
// which the caller may then reuse. The cursor holds pointers to rec's
// string fields, so rec is the caller's: a record local to this function
// would be moved to the heap on every call.
func decodeRecord(payload []byte, rec *Record) bool {
	*rec = Record{}
	d := jsonc.NewDecoder(payload)
	ok := d.Object(func(key []byte) bool {
		switch string(key) {
		case "k":
			return recordKind(&d, &rec.Kind)
		case "t":
			return d.Int64(&rec.AtMs)
		case "epoch":
			return d.Uint64(&rec.Epoch)
		case "job":
			return d.Str(&rec.Job)
		case "type":
			return d.Str(&rec.Type)
		case "nodes":
			return d.Int(&rec.Nodes)
		case "cap_w":
			return d.Float(&rec.CapW)
		case "power_w":
			return d.Float(&rec.PowerW)
		case "throttled":
			return d.Bool(&rec.Throttled)
		case "reason":
			return d.Str(&rec.Reason)
		case "model":
			rec.Model = new(ModelState)
			return modelState(&d, rec.Model)
		case "avg_w":
			return d.Float(&rec.AvgW)
		case "reserve_w":
			return d.Float(&rec.ReserveW)
		}
		return false
	})
	if !ok || !d.Done() {
		*rec = Record{}
		return false
	}
	d.CopyStrings()
	return true
}

func modelState(d *jsonc.Decoder, m *ModelState) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "a":
			return d.Float(&m.A)
		case "b":
			return d.Float(&m.B)
		case "c":
			return d.Float(&m.C)
		case "p_min_w":
			return d.Float(&m.PMinW)
		case "p_max_w":
			return d.Float(&m.PMaxW)
		case "updated_ms":
			return d.Int64(&m.UpdatedMs)
		}
		return false
	})
}

// knownKinds are the kinds decodeRecord reads.
var knownKinds = [...]string{KindEpoch, KindHello, KindBye, KindModel, KindCap, KindPower, KindIdle, KindBid}

// recordKind reads a known record kind into *k as its constant. A kind
// this reader does not know is left to json.Unmarshal; replay skips it
// either way.
func recordKind(d *jsonc.Decoder, k *string) bool {
	lit, ok := d.Span()
	if !ok {
		return false
	}
	for _, known := range knownKinds {
		if string(lit) == known {
			*k = known
			return true
		}
	}
	return false
}
