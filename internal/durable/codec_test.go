package durable

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
)

// randomFloat draws finite floats at every magnitude, with extra weight
// on zero (elided by omitempty, but not inside a model), signed zero and
// the boundaries of encoding/json's exponent form.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 1:
		edge := []float64{1e-6, 1e21, 1e-7, 1e20, 5e-324, math.MaxFloat64, 0, math.Copysign(0, -1)}[rng.Intn(8)]
		for n := rng.Intn(3); n > 0; n-- {
			edge = math.Nextafter(edge, math.Inf(2*rng.Intn(2)-1))
		}
		return edge
	case 2:
		return float64(rng.Int63n(1<<20)) / 4
	default:
		return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

// randomString draws short strings over an alphabet that mixes plain
// ASCII with every class encoding/json escapes or rewrites.
func randomString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return ""
	}
	const alphabet = "aZ09._- /\"\\<>&\x00\x1f\x7f\u00e9\u2028\u2029\xff"
	var sb strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		if rng.Intn(3) == 0 {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		} else {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return sb.String()
}

func randomInt64(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(1000) - 500
	default:
		return int64(rng.Uint64())
	}
}

// randomRecord draws a record with any subset of the fields set, so every
// key and omitempty rule is exercised in every combination.
func randomRecord(rng *rand.Rand) Record {
	rec := Record{Kind: knownKinds[rng.Intn(len(knownKinds))]}
	if rng.Intn(8) == 0 {
		rec.Kind = randomString(rng)
	}
	field := func() bool { return rng.Intn(2) == 0 }
	if field() {
		rec.AtMs = randomInt64(rng)
	}
	if field() {
		rec.Epoch = uint64(randomInt64(rng))
	}
	if field() {
		rec.Job = randomString(rng)
	}
	if field() {
		rec.Type = randomString(rng)
	}
	if field() {
		rec.Nodes = int(randomInt64(rng))
	}
	if field() {
		rec.CapW = randomFloat(rng)
	}
	if field() {
		rec.PowerW = randomFloat(rng)
	}
	rec.Throttled = field()
	if rng.Intn(4) == 0 {
		rec.Reason = randomString(rng)
	}
	if field() {
		rec.Model = &ModelState{A: randomFloat(rng), B: randomFloat(rng), C: randomFloat(rng),
			PMinW: randomFloat(rng), PMaxW: randomFloat(rng)}
		if field() {
			rec.Model.UpdatedMs = randomInt64(rng)
		}
	}
	if field() {
		rec.AvgW = randomFloat(rng)
	}
	if field() {
		rec.ReserveW = randomFloat(rng)
	}
	return rec
}

// checkRecordEncoding fails t unless appendRecord and json.Marshal agree
// on rec: the same bytes, or errors with the same message.
func checkRecordEncoding(t *testing.T, rec *Record) {
	t.Helper()
	got, err := appendRecord([]byte("prefix"), rec)
	want, werr := json.Marshal(rec)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("appendRecord error %v, json.Marshal error %v for %+v", err, werr, rec)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendRecord = %s\n json.Marshal = %s", got[len("prefix"):], want)
	}
	if err != nil && string(got) != "prefix" {
		t.Fatalf("appendRecord wrote %q before failing", got)
	}
}

// fastDecodable reports whether payload, a json.Marshal encoding of ref,
// is in the form decodeRecord accepts: strings that need no escape and a
// kind it knows.
func fastDecodable(payload []byte, ref Record) bool {
	for _, c := range payload {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	for _, k := range knownKinds {
		if ref.Kind == k {
			return true
		}
	}
	return false
}

// TestAppendRecordMatchesMarshal compares the encoder with json.Marshal
// on random records, and the decoder with json.Unmarshal on what they
// encode.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decoded := 0
	for i := 0; i < 50000; i++ {
		rec := randomRecord(rng)
		checkRecordEncoding(t, &rec)
		payload, err := json.Marshal(rec)
		if err != nil {
			continue // a float stepped past MaxFloat64; checkRecordEncoding compared the errors
		}
		var ref Record
		if err := json.Unmarshal(payload, &ref); err != nil {
			t.Fatal(err)
		}
		var fast Record
		ok := decodeRecord(payload, &fast)
		if ok != fastDecodable(payload, ref) {
			t.Fatalf("decodeRecord accepted = %v on %s", ok, payload)
		}
		if ok {
			decoded++
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decodeRecord = %+v, json.Unmarshal = %+v on %s", fast, ref, payload)
			}
		}
	}
	if decoded < 10000 {
		t.Errorf("only %d of 50000 records took the canonical decoder", decoded)
	}
}

// TestAppendRecordRejectsNonFinite: NaN and ±Inf in any float field fail
// as json.Marshal fails on them, naming the first in encoding order.
func TestAppendRecordRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rec := range []Record{
			{Kind: KindCap, CapW: f},
			{Kind: KindPower, PowerW: f, CapW: math.Inf(-1)},
			{Kind: KindModel, Model: &ModelState{A: 1, PMaxW: f}},
			{Kind: KindBid, AvgW: 1, ReserveW: f},
			{Kind: KindBid, AvgW: f, ReserveW: math.NaN()},
		} {
			checkRecordEncoding(t, &rec)
		}
	}
}

// TestDecodeRecordDeclinesNonCanonical lists payloads json.Unmarshal may
// take but the canonical decoder must leave to it.
func TestDecodeRecordDeclinesNonCanonical(t *testing.T) {
	for _, payload := range []string{
		``,
		`{"k":"cap","job":"j"} `,
		`{ "k":"cap"}`,
		`{"K":"cap"}`,
		`{"k":"cap","k":"cap"}`,
		`{"k":"cap","job":"a","job":"b"}`,
		`{"k":"cap","extra":1}`,
		`{"k":"future"}`,
		`{"k":"cap","job":"\u006a"}`,
		`{"k":"cap","job":"é"}`,
		`{"k":"cap","model":null}`,
		`{"k":"model","model":{"a":1,"a":2}}`,
		`{"k":"model","model":{"updated_ms":1.5}}`,
		`{"k":"cap","cap_w":01}`,
		`{"k":"cap","cap_w":1.}`,
		`{"k":"cap","cap_w":.5}`,
		`{"k":"cap","cap_w":+1}`,
		`{"k":"cap","cap_w":1e}`,
		`{"k":"cap","cap_w":1e400}`,
		`{"k":"cap","cap_w":"1"}`,
		`{"k":"epoch","epoch":-1}`,
		`{"k":"epoch","epoch":1.0}`,
		`{"k":"hello","nodes":1e2}`,
		`{"k":"hello","nodes":99999999999999999999}`,
		`{"k":"power","throttled":1}`,
		`{"k":"cap"}x`,
		`{"k":"cap",}`,
	} {
		var rec Record
		if decodeRecord([]byte(payload), &rec) {
			t.Errorf("decodeRecord(%s) accepted: %+v", payload, rec)
		} else if !reflect.DeepEqual(rec, Record{}) {
			t.Errorf("decodeRecord(%s) declined but left %+v", payload, rec)
		}
	}
}

// FuzzRecordCodec holds both halves of the codec to encoding/json on
// arbitrary payloads: whatever the canonical decoder accepts,
// json.Unmarshal accepts too and decodes to a deeply equal record, and
// re-encoding any record json.Unmarshal returns gives json.Marshal's
// bytes.
func FuzzRecordCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		rec := randomRecord(rng)
		if payload, err := json.Marshal(rec); err == nil {
			f.Add(payload)
		}
	}
	f.Add([]byte(`{"k":"cap","cap_w":-0.0e-0}`))
	f.Add([]byte(`{"k":"hello","job":"j","nodes":-0}`))
	f.Add([]byte(`{"k":"model","model":{}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var ref Record
		refErr := json.Unmarshal(payload, &ref)
		var fast Record
		if decodeRecord(payload, &fast) {
			if refErr != nil {
				t.Fatalf("decodeRecord accepted %q, json.Unmarshal: %v", payload, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decodeRecord = %+v, json.Unmarshal = %+v on %q", fast, ref, payload)
			}
		}
		if refErr == nil {
			checkRecordEncoding(t, &ref)
		}
	})
}

// goldenSegment is a WAL segment written by the json.Marshal-based
// Store.Append that preceded the reflection-free codec, cut off inside
// its last frame. It holds every record kind, escaped and non-ASCII job
// and type strings, exponent-form, subnormal and negative-zero floats,
// model records with and without updated_ms, an insane power record, a
// kind from a newer writer and a mid-segment epoch.
const goldenSegment = "testdata/golden.wal"

// goldenFrames is how many whole frames goldenSegment holds.
const goldenFrames = 20

// replayWith replays the frames of data into a fresh replayer, handing
// each payload to apply.
func replayWith(t *testing.T, data []byte, apply func(rp *replayer, payload []byte)) (*replayer, *ControlState, ledger.Snapshot) {
	t.Helper()
	rp := newReplayer(newControlState())
	if _, err := scanFrames(bytes.NewReader(data), walMagic, func(p []byte) error {
		apply(rp, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st, led := rp.finish()
	return rp, st, led.SnapshotAt(st.LastMs)
}

// TestGoldenSegmentReplays holds replay to a segment an older writer
// left: the canonical decoder and json.Unmarshal alone rebuild the same
// state and ledger from it, and re-encoding each record reproduces its
// frame byte for byte.
func TestGoldenSegmentReplays(t *testing.T) {
	data, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	payloads, res := scanAll(t, data)
	if len(payloads) != goldenFrames || !res.torn || res.corrupt {
		t.Fatalf("golden segment: %d frames, torn %v, corrupt %v; want %d, torn", len(payloads), res.torn, res.corrupt, goldenFrames)
	}

	// Every frame re-encodes to its bytes; the canonical ones also take
	// the fast decoder.
	whole := []byte(walMagic)
	fastFrames := 0
	for _, p := range payloads {
		var rec Record
		if err := json.Unmarshal([]byte(p), &rec); err != nil {
			t.Fatalf("golden payload %s: %v", p, err)
		}
		enc, err := appendRecord(nil, &rec)
		if err != nil || string(enc) != p {
			t.Errorf("appendRecord = %s, %v\n golden    %s", enc, err, p)
		}
		var fast Record
		if decodeRecord([]byte(p), &fast) {
			fastFrames++
			if !reflect.DeepEqual(fast, rec) {
				t.Errorf("decodeRecord = %+v, json.Unmarshal = %+v", fast, rec)
			}
		} else if fastDecodable([]byte(p), rec) {
			t.Errorf("decodeRecord declined canonical %s", p)
		}
		whole = appendFrame(whole, enc)
	}
	if !bytes.HasPrefix(data, whole) || len(data) <= len(whole) {
		t.Error("re-encoded frames differ from the golden segment's")
	}
	if fastFrames < goldenFrames/2 {
		t.Errorf("only %d of %d golden frames took the canonical decoder", fastFrames, goldenFrames)
	}

	fastRp, fastSt, fastLed := replayWith(t, data, (*replayer).applyPayload)
	slowRp, slowSt, slowLed := replayWith(t, data, func(rp *replayer, p []byte) {
		var rec Record
		if json.Unmarshal(p, &rec) != nil {
			rp.skipped++
			return
		}
		rp.apply(rec)
	})
	if !reflect.DeepEqual(fastSt, slowSt) {
		t.Errorf("fast replay state %+v\n json.Unmarshal replay %+v", fastSt, slowSt)
	}
	if !reflect.DeepEqual(fastLed, slowLed) {
		t.Errorf("fast replay ledger %+v\n json.Unmarshal replay %+v", fastLed, slowLed)
	}
	if fastRp.applied != slowRp.applied || fastRp.skipped != slowRp.skipped {
		t.Errorf("applied/skipped: fast %d/%d, json.Unmarshal %d/%d", fastRp.applied, fastRp.skipped, slowRp.applied, slowRp.skipped)
	}

	// What the segment says, independent of the path that read it.
	esc := "a\"b\\c<d>&e\x01\t\u2028"
	if fastRp.skipped != 2 || fastSt.Epoch != 7 || len(fastSt.Sessions) != 4 {
		t.Errorf("skipped %d, epoch %d, %d sessions; want 2, 7, 4", fastRp.skipped, fastSt.Epoch, len(fastSt.Sessions))
	}
	if s := fastSt.Sessions[esc]; s == nil || s.Type != "é型.D.81" || s.CapW != 2.5e-7 || !s.Trained ||
		s.Model.B != 0 || !math.Signbit(s.Model.B) || s.Model.PMaxW != 1e21 || s.Model.UpdatedMs != 0 {
		t.Errorf("escaped session = %+v", s)
	}
	if s := fastSt.Sessions["j0001"]; s == nil || s.CapW != 95.25 || s.Model.UpdatedMs != 1754400000003 {
		t.Errorf("j0001 = %+v", s)
	}
	if m, ok := fastSt.TypeTrained["sp.D.81"]; !ok || m.C != 9.999999999999999e20 || !math.Signbit(m.A) {
		t.Errorf("sp.D.81 type model = %+v, %v", m, ok)
	}
	if fastLed.ConservationDeltaMicroJ != 0 || fastLed.Errors != 0 {
		t.Errorf("golden replay ledger not conserved: %+v", fastLed)
	}

	// Recovery proper reads it too, flagging the torn tail.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Options{Dir: dir, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rec.TornTail || rec.WALRecords != goldenFrames || rec.Epoch != 8 || rec.Sessions != 4 {
		t.Errorf("recovery = %+v", rec)
	}
}

// openQuiet opens a store in a fresh directory that never syncs on its
// own, so appends stay in the write buffer.
func openQuiet(t *testing.T) *Store {
	t.Helper()
	s, _, err := Open(Options{Dir: t.TempDir(), FlushEvery: time.Hour, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreAppendZeroAlloc: a steady-state append of a cap, power or
// model record, alone or as one tick's batch, allocates nothing.
func TestStoreAppendZeroAlloc(t *testing.T) {
	s := openQuiet(t)
	model := ModelState{A: 1.2e-5, B: -0.0123, C: 2.5, PMinW: 140, PMaxW: 280, UpdatedMs: 1754400000003}
	batch := []Record{
		{Kind: KindCap, AtMs: 1754400000000, Job: "j0001", CapW: 201.337},
		{Kind: KindPower, AtMs: 1754400000000, Job: "j0001", PowerW: 812.25, Throttled: true},
		{Kind: KindModel, AtMs: 1754400000000, Job: "j0001", Type: "bt.D.81", Model: &model},
	}
	for _, rec := range batch {
		if err := s.Append(rec); err != nil { // grows the buffer
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Append allocates %.1f objects per record, want 0", rec.Kind, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Append(batch...); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append of a %d-record batch allocates %.1f objects, want 0", len(batch), allocs)
	}
}

// TestReplayAllocs budgets replay per record: one copy of its strings,
// plus the ModelState of a model record. A scan's own allocations are
// taken out by comparing segments of n records and of one.
func TestReplayAllocs(t *testing.T) {
	const budget, n = 2, 257
	model := ModelState{A: 1.2e-5, B: -0.005, C: 2.5, PMinW: 140, PMaxW: 280, UpdatedMs: 1754400000003}
	for _, rec := range []Record{
		{Kind: KindCap, Job: "j0001", CapW: 201.337},
		{Kind: KindPower, Job: "j0001", PowerW: 812.25, Throttled: true},
		{Kind: KindIdle, Nodes: 12, PowerW: 70},
		{Kind: KindModel, Job: "j0001", Type: "bt.D.81", Model: &model},
	} {
		rp := newReplayer(newControlState())
		rp.apply(Record{Kind: KindHello, AtMs: 1754400000000, Job: "j0001", Type: "bt.D.81", Nodes: 4})
		replay := func(records int) float64 {
			seg := []byte(walMagic)
			for i := 0; i < records; i++ {
				rec.AtMs = 1754400000000 + int64(i)
				payload, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				seg = appendFrame(seg, payload)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := scanFrames(bytes.NewReader(seg), walMagic, func(p []byte) error {
					rp.applyPayload(p)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		perRecord := (replay(n) - replay(1)) / (n - 1)
		t.Logf("%s: %.2f allocations per record", rec.Kind, perRecord)
		if perRecord > budget {
			t.Errorf("%s: replay allocates %.2f objects per record, budget %d", rec.Kind, perRecord, budget)
		}
		if rp.skipped != 0 || rp.applied == 0 {
			t.Errorf("%s: %d records applied, %d skipped", rec.Kind, rp.applied, rp.skipped)
		}
	}
}

// TestAppendBatchDropsUnencodable: a record json.Marshal would refuse is
// dropped from its batch with json.Marshal's error; the records around
// it are still logged and replay.
func TestAppendBatchDropsUnencodable(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Append(
		Record{Kind: KindHello, AtMs: 1000, Job: "j", Nodes: 1},
		Record{Kind: KindCap, AtMs: 1000, Job: "j", CapW: math.NaN()},
		Record{Kind: KindCap, AtMs: 1000, Job: "j", CapW: 150},
	)
	if _, werr := json.Marshal(Record{CapW: math.NaN()}); err == nil || err.Error() != werr.Error() {
		t.Fatalf("Append error = %v, want %v", err, werr)
	}
	s.Close()
	s2, rec, err := Open(Options{Dir: dir, noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if sess := rec.State.Sessions["j"]; sess == nil || sess.CapW != 150 {
		t.Fatalf("recovered session %+v, want cap 150", sess)
	}
}
