package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dr"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// sparseConfig builds a schedule with long fully-idle gaps between a
// handful of jobs — the workload shape where the idle fast-forward
// actually engages. The horizon stretches well past the
// last completion so the run also exercises the post-horizon drain.
func sparseConfig(seed uint64) Config {
	types := []workload.Type{
		workload.MustByName("bt"), // 2 nodes, 360 s base
		workload.MustByName("mg"), // 1 node, 120 s base
		workload.MustByName("ep"), // 1 node, 25 s base
	}
	arrivals := []schedule.Arrival{
		{At: 0, JobID: "j0", TypeName: "bt.D.81", ClaimedType: "bt.D.81"},
		{At: 30 * time.Second, JobID: "j1", TypeName: "ep.D.43", ClaimedType: "ep.D.43"},
		{At: 14 * time.Minute, JobID: "j2", TypeName: "mg.D.32", ClaimedType: "mg.D.32"},
		{At: 14*time.Minute + 500*time.Millisecond, JobID: "j3", TypeName: "ep.D.43", ClaimedType: "ep.D.43"},
		{At: 25 * time.Minute, JobID: "j4", TypeName: "bt.D.81", ClaimedType: "bt.D.81"},
	}
	return Config{
		Nodes:        16,
		Types:        types,
		Arrivals:     arrivals,
		Bid:          dr.Bid{AvgPower: 16 * 180, Reserve: 16 * 60},
		Signal:       dr.NewRandomWalk(seed, 4*time.Second, 0.25, time.Hour),
		Horizon:      40 * time.Minute,
		Seed:         seed,
		VariationStd: 0.1,
	}
}

// TestEventDrivenEmitsEverySecond pins the contract that fast-forwarding
// compresses work, not output: the per-second Tracking series and TableLog
// rows must cover every simulated second with no holes, even when most of
// the run is idle.
func TestEventDrivenEmitsEverySecond(t *testing.T) {
	var log bytes.Buffer
	cfg := sparseConfig(5)
	cfg.TableLog = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Tracking {
		if off := p.Time.Sub(simEpoch); off != time.Duration(i)*time.Second {
			t.Fatalf("tracking point %d at offset %v; series has holes", i, off)
		}
	}
	if min := int(cfg.Horizon / time.Second); len(res.Tracking) < min {
		t.Errorf("tracking has %d points, want ≥ %d (one per second to the horizon)", len(res.Tracking), min)
	}
	if rows := bytes.Count(log.Bytes(), []byte("\n")); rows != len(res.Tracking)+1 {
		t.Errorf("TableLog rows = %d, want %d (header + one per second)", rows, len(res.Tracking)+1)
	}
}

// TestStreamingSourceMatchesSlice holds the two arrival paths against each
// other: a Config.Source streaming the same arrivals (with their types
// supplied inline, as a trace ingester would) must produce a Result deeply
// equal to the in-memory Arrivals slice.
func TestStreamingSourceMatchesSlice(t *testing.T) {
	base := sparseConfig(11)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	types := map[string]workload.Type{}
	for _, typ := range base.Types {
		types[typ.Name] = typ
	}
	streamed := base
	streamed.Source = &sliceSource{arrivals: base.Arrivals, types: types}
	streamed.Arrivals = nil
	streamed.Types = nil // the stream must be able to register its own types
	got, err := Run(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("streaming-source Result differs from slice path")
	}
}

// errSource yields a fixed arrival sequence then an error or a bad record,
// for exercising the streaming validation paths.
type errSource struct {
	seq []func() (schedule.Arrival, workload.Type, bool, error)
	i   int
}

func (s *errSource) Next() (schedule.Arrival, workload.Type, bool, error) {
	if s.i >= len(s.seq) {
		return schedule.Arrival{}, workload.Type{}, false, nil
	}
	f := s.seq[s.i]
	s.i++
	return f()
}

func TestStreamingSourceValidation(t *testing.T) {
	typ := workload.MustByName("ep")
	good := func(at time.Duration, id string) func() (schedule.Arrival, workload.Type, bool, error) {
		return func() (schedule.Arrival, workload.Type, bool, error) {
			return schedule.Arrival{At: at, JobID: id, TypeName: typ.Name, ClaimedType: typ.Name}, typ, true, nil
		}
	}
	cases := []struct {
		name    string
		seq     []func() (schedule.Arrival, workload.Type, bool, error)
		wantErr string
	}{
		{
			name: "stream error surfaces",
			seq: []func() (schedule.Arrival, workload.Type, bool, error){
				good(0, "a"),
				func() (schedule.Arrival, workload.Type, bool, error) {
					return schedule.Arrival{}, workload.Type{}, false, fmt.Errorf("disk on fire")
				},
			},
			wantErr: "disk on fire",
		},
		{
			name: "out of order rejected",
			seq: []func() (schedule.Arrival, workload.Type, bool, error){
				good(time.Minute, "late"), good(time.Second, "early"),
			},
			wantErr: "not sorted",
		},
		{
			name: "wider than cluster rejected",
			seq: []func() (schedule.Arrival, workload.Type, bool, error){
				func() (schedule.Arrival, workload.Type, bool, error) {
					wide := typ
					wide.Name = "wide"
					wide.Nodes = 99
					return schedule.Arrival{JobID: "w", TypeName: "wide", ClaimedType: "wide"}, wide, true, nil
				},
			},
			wantErr: "can never start",
		},
		{
			name: "type name mismatch rejected",
			seq: []func() (schedule.Arrival, workload.Type, bool, error){
				func() (schedule.Arrival, workload.Type, bool, error) {
					other := typ
					other.Name = "other"
					return schedule.Arrival{JobID: "m", TypeName: "claimed", ClaimedType: "claimed"}, other, true, nil
				},
			},
			wantErr: "claims type",
		},
		{
			name: "zero base time rejected",
			seq: []func() (schedule.Arrival, workload.Type, bool, error){
				func() (schedule.Arrival, workload.Type, bool, error) {
					bad := typ
					bad.Name = "bad"
					bad.BaseSeconds = 0
					return schedule.Arrival{JobID: "z", TypeName: "bad", ClaimedType: "bad"}, bad, true, nil
				},
			},
			wantErr: "base execution time",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Nodes:   8,
				Bid:     dr.Bid{AvgPower: 8 * 180, Reserve: 10},
				Signal:  dr.Constant(0),
				Horizon: 5 * time.Minute,
				Source:  &errSource{seq: tc.seq},
			}
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("bad stream accepted")
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.wantErr)) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSourceAndArrivalsMutuallyExclusive(t *testing.T) {
	cfg := sparseConfig(1)
	cfg.Source = &sliceSource{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("config with both Arrivals and Source accepted")
	}
}

// BenchmarkSimIdleFastForward measures the fast-forward on an idle-heavy
// hour at 10000 nodes: two brief jobs and ~3600 quiet seconds, each of
// which must cost O(1) rather than O(cluster).
func BenchmarkSimIdleFastForward(b *testing.B) {
	cfg := sparseConfig(3)
	cfg.Nodes = 10000
	cfg.Bid = dr.Bid{AvgPower: 10000 * 180, Reserve: 0}
	cfg.Signal = dr.Constant(0)
	cfg.Horizon = time.Hour
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
