package proto

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// goldenFrames names the envelopes whose json.Marshal encodings are
// checked in as testdata/frames.txt, one "name body" line each. The file
// was written by the json.Marshal-based Send that preceded the reflection-
// free codec, so it pins the wire bytes older peers send and expect.
func goldenFrames() []struct {
	name string
	env  Envelope
} {
	tc := obs.TraceContext{TraceID: "4bf92f3577b34da6", SpanID: "00f067aa0ba902b7", RootStartUnixNano: 1754400000123456789}
	return []struct {
		name string
		env  Envelope
	}{
		{"hello", Envelope{Kind: KindHello, Hello: &Hello{JobID: "j0001", Nodes: 4}}},
		{"hello-typed-epoch", Envelope{Kind: KindHello, Epoch: 3, Hello: &Hello{JobID: "j0002", TypeName: "bt.D.81", Nodes: 2}}},
		{"hello-escaped", Envelope{Kind: KindHello, Hello: &Hello{JobID: "a\"b\\c<d>&e\x01\t\u2028é", TypeName: "bad\xffutf8", Nodes: -1}}},
		{"model-update", Envelope{Kind: KindModelUpdate, ModelUpdate: &ModelUpdate{
			JobID: "j0001", A: 1.2345e-5, B: -0.0123, C: 2.5, PMinWatts: 140, PMaxWatts: 280,
			Epochs: 17, PowerWatts: 812.25, TimestampUnixNano: 1754400000987654321}}},
		{"model-update-traced-epoch", Envelope{Kind: KindModelUpdate, Epoch: 9, Trace: &tc, ModelUpdate: &ModelUpdate{
			JobID: "j0003", A: 3e-7, B: -2.5e-9, C: 1e21, PMinWatts: 0.000001, PMaxWatts: 1.7976931348623157e308,
			Trained: true, Epochs: -4, PowerWatts: math.Copysign(0, -1), TimestampUnixNano: -1}}},
		{"model-update-tiny", Envelope{Kind: KindModelUpdate, ModelUpdate: &ModelUpdate{
			A: 5e-324, B: -1e-100, C: 9.999999999999999e20, PMinWatts: 123456789.123, PMaxWatts: 1e-6}}},
		{"set-budget", Envelope{Kind: KindSetBudget, SetBudget: &SetBudget{JobID: "j0001", PowerCapWatts: 201.337}}},
		{"set-budget-traced-epoch", Envelope{Kind: KindSetBudget, Epoch: 2, Trace: &tc, SetBudget: &SetBudget{JobID: "j0004", PowerCapWatts: 180}}},
		{"set-budget-root-only", Envelope{Kind: KindSetBudget, Trace: &obs.TraceContext{RootStartUnixNano: 42}, SetBudget: &SetBudget{JobID: "j", PowerCapWatts: -0.5}}},
		{"set-budget-span-only", Envelope{Kind: KindSetBudget, Trace: &obs.TraceContext{SpanID: "s1"}, SetBudget: &SetBudget{PowerCapWatts: math.Copysign(0, -1)}}},
		{"set-budget-empty-trace", Envelope{Kind: KindSetBudget, Trace: &obs.TraceContext{}, SetBudget: &SetBudget{JobID: "j", PowerCapWatts: 2e21}}},
		{"goodbye", Envelope{Kind: KindGoodbye, Goodbye: &Goodbye{JobID: "j0001"}}},
		{"goodbye-epoch", Envelope{Kind: KindGoodbye, Epoch: math.MaxUint64, Goodbye: &Goodbye{}}},
		{"ping", Envelope{Kind: KindPing, Epoch: 1, Ping: &Ping{Seq: 7, TimestampUnixNano: 1754400000000000001}}},
		{"ping-zero-ts", Envelope{Kind: KindPing, Ping: &Ping{Seq: 0}}},
		{"pong-traced", Envelope{Kind: KindPong, Trace: &tc, Pong: &Pong{Seq: math.MaxUint64, TimestampUnixNano: -12345}}},
		{"pong-zero-ts", Envelope{Kind: KindPong, Pong: &Pong{Seq: 3}}},
		{"two-payloads", Envelope{Kind: KindSetBudget, SetBudget: &SetBudget{JobID: "j", PowerCapWatts: 1},
			Goodbye: &Goodbye{JobID: "j"}, Ping: &Ping{Seq: 1}}},
	}
}

// readGolden returns testdata/frames.txt as a map from case name to body.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		name, body, ok := bytes.Cut(line, []byte(" "))
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[string(name)] = body
	}
	return out
}

// canonical reports whether body is in the form decodeEnvelope accepts:
// json.Marshal output whose strings need no escape.
func canonical(body []byte) bool {
	for _, c := range body {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// TestCodecMatchesGoldenFrames holds the codec to the checked-in frames:
// appendEnvelope reproduces each byte for byte, and Recv of each returns
// exactly what json.Unmarshal does, through the canonical decoder when
// the frame's strings need no escape.
func TestCodecMatchesGoldenFrames(t *testing.T) {
	golden := readGolden(t)
	cases := goldenFrames()
	if len(golden) != len(cases) {
		t.Errorf("%d golden frames, %d cases", len(golden), len(cases))
	}
	for _, tc := range cases {
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("%s: no golden frame", tc.name)
			continue
		}
		got, err := appendEnvelope(nil, &tc.env)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: appendEnvelope = %s, %v\n want %s", tc.name, got, err, want)
		}
		var ref Envelope
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatalf("%s: json.Unmarshal: %v", tc.name, err)
		}
		fast, ok := decodeEnvelope(want)
		if ok != canonical(want) {
			t.Errorf("%s: decodeEnvelope accepted = %v, want %v", tc.name, ok, !ok)
		}
		if ok && !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: decodeEnvelope = %+v, json.Unmarshal = %+v", tc.name, fast, ref)
		}
		var buf rwBuffer
		buf.Write(frame(t, want))
		env, err := NewConn(&buf).Recv()
		if err != nil || !reflect.DeepEqual(env, ref) {
			t.Errorf("%s: Recv = %+v, %v; json.Unmarshal = %+v", tc.name, env, err, ref)
		}
	}
}

// randomFloat draws finite floats at every magnitude, with extra weight
// on the boundaries of encoding/json's exponent form and on signed zero.
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

// randomEnvelope draws an envelope with any subset of the payloads set,
// so every key and omitempty rule is exercised in every combination.
func randomEnvelope(rng *rand.Rand) Envelope {
	e := Envelope{Kind: knownKinds[rng.Intn(len(knownKinds))]}
	if rng.Intn(8) == 0 {
		e.Kind = Kind(randomString(rng))
	}
	if rng.Intn(2) == 0 {
		e.Epoch = uint64(randomInt64(rng))
	}
	if rng.Intn(2) == 0 {
		e.Trace = &obs.TraceContext{TraceID: randomString(rng), SpanID: randomString(rng), RootStartUnixNano: randomInt64(rng)}
	}
	if rng.Intn(3) == 0 {
		e.Hello = &Hello{JobID: randomString(rng), TypeName: randomString(rng), Nodes: int(randomInt64(rng))}
	}
	if rng.Intn(3) == 0 {
		e.ModelUpdate = &ModelUpdate{JobID: randomString(rng), A: randomFloat(rng), B: randomFloat(rng),
			C: randomFloat(rng), PMinWatts: randomFloat(rng), PMaxWatts: randomFloat(rng),
			Trained: rng.Intn(2) == 0, Epochs: randomInt64(rng), PowerWatts: randomFloat(rng),
			TimestampUnixNano: randomInt64(rng)}
	}
	if rng.Intn(3) == 0 {
		e.SetBudget = &SetBudget{JobID: randomString(rng), PowerCapWatts: randomFloat(rng)}
	}
	if rng.Intn(3) == 0 {
		e.Goodbye = &Goodbye{JobID: randomString(rng)}
	}
	if rng.Intn(3) == 0 {
		e.Ping = &Ping{Seq: uint64(randomInt64(rng)), TimestampUnixNano: randomInt64(rng)}
	}
	if rng.Intn(3) == 0 {
		e.Pong = &Pong{Seq: uint64(randomInt64(rng)), TimestampUnixNano: randomInt64(rng)}
	}
	return e
}

// checkEncoding fails t unless appendEnvelope and json.Marshal agree on
// e: the same bytes, or errors with the same message.
func checkEncoding(t *testing.T, e *Envelope) {
	t.Helper()
	got, err := appendEnvelope([]byte("prefix"), e)
	want, werr := json.Marshal(e)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("appendEnvelope error %v, json.Marshal error %v for %+v", err, werr, e)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendEnvelope = %s\n json.Marshal = %s", got[len("prefix"):], want)
	}
}

// TestAppendEnvelopeMatchesMarshal compares the encoder with json.Marshal
// on random envelopes, and the decoder with json.Unmarshal on what they
// encode.
func TestAppendEnvelopeMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		e := randomEnvelope(rng)
		checkEncoding(t, &e)
		body, err := json.Marshal(e)
		if err != nil {
			continue // a float stepped past MaxFloat64; checkEncoding compared the errors
		}
		fast, ok := decodeEnvelope(body)
		if ok != canonical(body) {
			t.Fatalf("decodeEnvelope accepted = %v on %s", ok, body)
		}
		var ref Envelope
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if ok && !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decodeEnvelope = %+v, json.Unmarshal = %+v on %s", fast, ref, body)
		}
	}
}

// TestAppendEnvelopeRejectsNonFinite: NaN and ±Inf fail as json.Marshal
// fails on them, and Send writes nothing.
func TestAppendEnvelopeRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoding(t, &Envelope{Kind: KindSetBudget, SetBudget: &SetBudget{PowerCapWatts: f}})
		checkEncoding(t, &Envelope{Kind: KindModelUpdate, ModelUpdate: &ModelUpdate{A: 1, PowerWatts: f}})
		var buf rwBuffer
		if err := NewConn(&buf).Send(Envelope{Kind: KindSetBudget, SetBudget: &SetBudget{PowerCapWatts: f}}); err == nil || buf.Len() != 0 {
			t.Errorf("Send(cap %v) = %v, wrote %d bytes", f, err, buf.Len())
		}
	}
}

// TestDecodeEnvelopeDeclinesNonCanonical lists inputs json.Unmarshal may
// take but the canonical decoder must leave to it.
func TestDecodeEnvelopeDeclinesNonCanonical(t *testing.T) {
	for _, body := range []string{
		``,
		`{"kind":"goodbye","goodbye":{"job_id":"j"}} `,
		`{ "kind":"goodbye"}`,
		`{"Kind":"goodbye"}`,
		`{"kind":"goodbye","goodbye":null}`,
		`{"kind":"goodbye","kind":"goodbye"}`,
		`{"kind":"goodbye","goodbye":{"job_id":"a","job_id":"b"}}`,
		`{"kind":"goodbye","extra":1}`,
		`{"kind":"goodbye","goodbye":{"job_id":"\u006a"}}`,
		`{"kind":"goodbye","goodbye":{"job_id":"é"}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":01}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":1.}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":.5}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":+1}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":1e}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":1e400}}`,
		`{"kind":"set_budget","set_budget":{"power_cap_watts":"1"}}`,
		`{"kind":"ping","ping":{"seq":-1}}`,
		`{"kind":"ping","ping":{"seq":1.0}}`,
		`{"kind":"hello","hello":{"nodes":1e2}}`,
		`{"kind":"hello","hello":{"nodes":99999999999999999999}}`,
		`{"kind":"model_update","model_update":{"trained":1}}`,
		`{"kind":"goodbye"}x`,
		`{"kind":"goodbye",}`,
	} {
		if e, ok := decodeEnvelope([]byte(body)); ok {
			t.Errorf("decodeEnvelope(%s) accepted: %+v", body, e)
		}
	}
}

// FuzzEnvelopeCodec holds both halves of the codec to encoding/json on
// arbitrary bodies: whatever the canonical decoder accepts, json.Unmarshal
// accepts too and decodes to a deeply equal envelope, and re-encoding any
// envelope json.Unmarshal returns gives json.Marshal's bytes.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, tc := range goldenFrames() {
		body, _ := json.Marshal(tc.env)
		f.Add(body)
	}
	f.Add([]byte(`{"kind":"set_budget","set_budget":{"power_cap_watts":-0.0e-0}}`))
	f.Add([]byte(`{"kind":"hello","hello":{"job_id":"j","nodes":-0}}`))
	f.Add([]byte(`{"kind":"mystery","trace":{}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref Envelope
		refErr := json.Unmarshal(body, &ref)
		if fast, ok := decodeEnvelope(body); ok {
			if refErr != nil {
				t.Fatalf("decodeEnvelope accepted %q, json.Unmarshal: %v", body, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decodeEnvelope = %+v, json.Unmarshal = %+v on %q", fast, ref, body)
			}
		}
		if refErr == nil {
			checkEncoding(t, &ref)
		}
	})
}

// writeCounter is a transport that discards what it is sent and counts
// the Write calls.
type writeCounter struct{ writes int }

func (w *writeCounter) Read([]byte) (int, error)    { return 0, io.EOF }
func (w *writeCounter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
func (w *writeCounter) Close() error                { return nil }

// replay is a transport whose read side repeats one frame forever.
type replay struct {
	frame []byte
	off   int
}

func (r *replay) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.frame[r.off:])
		n += k
		r.off = (r.off + k) % len(r.frame)
	}
	return n, nil
}
func (r *replay) Write(p []byte) (int, error) { return len(p), nil }
func (r *replay) Close() error                { return nil }

// tracedFrames are a traced SetBudget and a traced ModelUpdate, as the
// control loop sends them.
func tracedFrames() []Envelope {
	tc := obs.TraceContext{TraceID: "4bf92f3577b34da6", SpanID: "00f067aa0ba902b7", RootStartUnixNano: 1754400000123456789}
	return []Envelope{
		{Kind: KindSetBudget, Epoch: 2, Trace: &tc, SetBudget: &SetBudget{JobID: "j0001", PowerCapWatts: 201.337}},
		{Kind: KindModelUpdate, Epoch: 2, Trace: &tc, ModelUpdate: &ModelUpdate{JobID: "j0001",
			A: 1.2e-5, B: -0.0123, C: 2.5, PMinWatts: 140, PMaxWatts: 280, Trained: true,
			Epochs: 17, PowerWatts: 812.25, TimestampUnixNano: 1754400000987654321}},
	}
}

// TestSendZeroAlloc: a steady-state Send writes each frame, length
// prefix and body, in one Write and allocates nothing.
func TestSendZeroAlloc(t *testing.T) {
	var w writeCounter
	c := NewConn(&w)
	for _, env := range tracedFrames() {
		if err := c.Send(env); err != nil { // grows the buffer
			t.Fatal(err)
		}
		w.writes = 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.Send(env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Send allocates %.1f objects per frame, want 0", env.Kind, allocs)
		}
		if want := 101; w.writes != want { // AllocsPerRun adds a warm-up call
			t.Errorf("%s: %d writes for %d frames", env.Kind, w.writes, want)
		}
	}
}

// TestRecvAllocs budgets a steady-state Recv of a traced frame: the
// payload, the trace context and one copy of the frame's strings.
func TestRecvAllocs(t *testing.T) {
	const budget = 3
	for _, env := range tracedFrames() {
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(&replay{frame: frame(t, body)})
		var got Envelope
		allocs := testing.AllocsPerRun(100, func() {
			if got, err = c.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: Recv allocates %.1f objects per frame, budget %d", env.Kind, allocs, budget)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("%s: Recv = %+v, want %+v", env.Kind, got, env)
		}
	}
}

// TestLargeFrameBuffersNotKept: a frame above maxKeptBuf goes through, and
// neither direction keeps its buffer for the next frame.
func TestLargeFrameBuffersNotKept(t *testing.T) {
	var buf rwBuffer
	c := NewConn(&buf)
	big := Envelope{Kind: KindHello, Hello: &Hello{JobID: strings.Repeat("x", 2*maxKeptBuf), Nodes: 1}}
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	if cap(c.wbuf) > maxKeptBuf {
		t.Errorf("Send kept a %d-byte buffer", cap(c.wbuf))
	}
	got, err := c.Recv()
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("Recv of a large frame: %v", err)
	}
	if cap(c.rbuf) > maxKeptBuf {
		t.Errorf("Recv kept a %d-byte buffer", cap(c.rbuf))
	}
	// The small frames after it still decode from the reused buffers.
	for _, env := range tracedFrames() {
		if err := c.Send(env); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil || !reflect.DeepEqual(got, env) {
			t.Fatalf("Recv after a large frame = %+v, %v", got, err)
		}
	}
}
