// Package chaos holds the fault-injection end-to-end test: a live
// cluster manager and job-tier endpoints over real TCP, with the faults
// package tearing at the wire between them. It asserts the robustness
// machinery — reconnect with backoff, heartbeat eviction, budget
// reclaim, hold-then-failsafe — keeps the control loop tracking its
// power target through the chaos.
package chaos

import (
	"context"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/endpointd"
	"repro/internal/faults"
	"repro/internal/geopm"
	"repro/internal/ledger"
	"repro/internal/modeler"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	chaosTarget  = units.Power(1640)
	tickPeriod   = 25 * time.Millisecond
	reportPeriod = 20 * time.Millisecond
)

func typeModels() map[string]perfmodel.Model {
	out := map[string]perfmodel.Model{}
	for _, t := range workload.Catalog() {
		out[t.Name] = t.RelativeModel()
	}
	return out
}

// cluster is one live manager serving TCP plus its registry and the
// tracking series its Track hook collects.
type cluster struct {
	mgr *clustermgr.Manager
	reg *obs.Registry
	ln  net.Listener

	mu    sync.Mutex
	track []trace.Point
}

func (c *cluster) record(p trace.Point) {
	c.mu.Lock()
	c.track = append(c.track, p)
	c.mu.Unlock()
}

func (c *cluster) tracking() []trace.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.track)
}

func startCluster(t *testing.T, ctx context.Context, heartbeat time.Duration, led *ledger.Ledger) *cluster {
	t.Helper()
	reg := obs.NewRegistry()
	c := &cluster{reg: reg}
	mgr, err := clustermgr.NewManager(clustermgr.Config{
		Clock:            clock.Real{},
		Budgeter:         budget.EvenSlowdown{},
		Target:           func(time.Time) units.Power { return chaosTarget },
		Period:           tickPeriod,
		TotalNodes:       16,
		IdlePower:        workload.NodeIdlePower,
		TypeModels:       typeModels(),
		DefaultModel:     workload.LeastSensitive().RelativeModel(),
		HeartbeatTimeout: heartbeat,
		WriteTimeout:     time.Second,
		Metrics:          reg,
		Ledger:           led,
		Track:            c.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mgr.Serve(ln)
	go mgr.Run(ctx)
	c.mgr, c.ln = mgr, ln
	return c
}

// startEndpoint runs one job-tier daemon dialing the cluster through
// dial, with a compliance loop that reports power equal to the enforced
// cap (a perfectly responsive job), so the manager's measured series
// tracks its allocations.
func startEndpoint(t *testing.T, ctx context.Context, reg *obs.Registry, job, typeName string, nodes int, dial func() (net.Conn, error)) *geopm.Endpoint {
	return startDurableEndpoint(t, ctx, reg, job, typeName, nodes, dial, "")
}

// startDurableEndpoint is startEndpoint with an optional persisted state
// file (cap + controller epoch restored across endpoint restarts).
func startDurableEndpoint(t *testing.T, ctx context.Context, reg *obs.Registry, job, typeName string, nodes int, dial func() (net.Conn, error), statePath string) *geopm.Endpoint {
	t.Helper()
	gep := geopm.NewEndpoint()
	mdl, err := modeler.New(modeler.Config{Default: workload.MustByName("is").Model()})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := endpointd.New(endpointd.Config{
		JobID:         job,
		TypeName:      typeName,
		Nodes:         nodes,
		Dial:          dial,
		StatePath:     statePath,
		ReconnectMin:  5 * time.Millisecond,
		ReconnectMax:  40 * time.Millisecond,
		ReconnectSeed: 1,
		HoldDuration:  60 * time.Millisecond,
		ReadTimeout:   500 * time.Millisecond,
		GEOPM:         gep,
		Modeler:       mdl,
		Clock:         clock.Real{},
		Period:        reportPeriod,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go ep.Run(ctx)
	go func() {
		var epochs int64
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(reportPeriod / 2):
			}
			p, seq := gep.ReadPolicy()
			power := workload.NodeIdlePower * units.Power(nodes)
			cap := units.Power(0)
			if seq > 0 {
				cap = p.PowerCap
				power = p.PowerCap * units.Power(nodes)
			}
			epochs++
			gep.WriteSample(geopm.Sample{
				EpochCount: epochs, Power: power, PowerCap: cap, Time: time.Now(),
			})
		}
	}()
	return gep
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("chaos condition not reached: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tailMeanAbsErr is the mean |measured - target| over points recorded
// after cut.
func tailMeanAbsErr(pts []trace.Point, cut time.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range pts {
		if p.Time.After(cut) {
			sum += math.Abs((p.Measured - p.Target).Watts())
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// runTracking runs a clean (fault-free) cluster with two compliant jobs
// and returns the steady-state tracking error to compare the chaos run
// against.
func cleanTailErr(t *testing.T) float64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := startCluster(t, ctx, 0, nil)
	defer cl.ln.Close()
	reg := obs.NewRegistry()
	addr := cl.ln.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	startEndpoint(t, ctx, reg, "bt-1", "bt.D.81", 2, dial)
	startEndpoint(t, ctx, reg, "sp-1", "sp.D.81", 2, dial)
	waitFor(t, "clean cluster registers both jobs", func() bool { return cl.mgr.ActiveJobs() == 2 })
	settle := time.Now().Add(200 * time.Millisecond)
	time.Sleep(500 * time.Millisecond)
	return tailMeanAbsErr(cl.tracking(), settle)
}

// TestChaosEndToEnd is the fault-injection acceptance test: seeded
// drops, mid-frame resets, and a network partition on the wire, plus a
// zombie endpoint that wedges silently. The tiers must reconnect, evict
// the zombie and reclaim its budget, and converge back to fault-free
// tracking error once the chaos clears.
func TestChaosEndToEnd(t *testing.T) {
	clean := cleanTailErr(t)
	if math.IsNaN(clean) {
		t.Fatal("clean run recorded no tracking points")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	cl := startCluster(t, ctx, 250*time.Millisecond, nil)
	defer cl.ln.Close()
	addr := cl.ln.Addr().String()

	// The injector faults the job→cluster direction of both endpoints:
	// 5% frame drops, a mid-frame reset every 40th frame, and a 300 ms
	// partition shortly into the run.
	freg := obs.NewRegistry()
	partition := faults.Window{From: 400 * time.Millisecond, To: 700 * time.Millisecond}
	in := faults.NewInjector(faults.Plan{
		Seed:       11,
		DropProb:   0.05,
		ResetEvery: 40,
		Partitions: []faults.Window{partition},
	}, nil, freg)
	chaosStart := time.Now() // no earlier than the injector's epoch
	dial := in.WrapDial(func() (net.Conn, error) { return net.Dial("tcp", addr) })

	ereg := obs.NewRegistry()
	gepBT := startEndpoint(t, ctx, ereg, "bt-1", "bt.D.81", 2, dial)
	gepSP := startEndpoint(t, ctx, ereg, "sp-1", "sp.D.81", 2, dial)

	// The zombie: says Hello, then never reads or writes again. The
	// heartbeat deadline must evict it and hand its budget share back.
	zraw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer zraw.Close()
	zombie := proto.NewConn(zraw)
	if err := zombie.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "zombie-1", TypeName: "ft.D.64", Nodes: 4,
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "zombie registers", func() bool {
		_, ok := cl.mgr.JobCap("zombie-1")
		return ok
	})

	evictions := cl.reg.Counter("anord_endpoint_evictions_total", "")
	waitFor(t, "zombie evicted on heartbeat deadline", func() bool {
		_, ok := cl.mgr.JobCap("zombie-1")
		return !ok && evictions.Value() >= 1
	})

	// Let the full fault schedule play out (partition ends at 700 ms).
	reconnBT := ereg.CounterVec("endpoint_reconnects_total", "", "job").With("bt-1")
	reconnSP := ereg.CounterVec("endpoint_reconnects_total", "", "job").With("sp-1")
	waitFor(t, "an endpoint survived a dropped link", func() bool {
		return reconnBT.Value()+reconnSP.Value() >= 1
	})
	waitFor(t, "injected resets observed", func() bool {
		return freg.Counter("faults_resets_total", "").Value() >= 1
	})
	// Partitioned() also reads false before the window opens, and the
	// zombie eviction can finish by then; wait for the window's end.
	waitFor(t, "partition over", func() bool { return time.Since(chaosStart) >= partition.To })
	waitFor(t, "both endpoints re-registered after the chaos", func() bool {
		return cl.mgr.ActiveJobs() == 2
	})

	// Budget reclaim: with the zombie gone, the survivors' caps must sum
	// to (about) the whole job budget within one rebudget period.
	recovered := time.Now()
	waitFor(t, "budget redistributed to survivors", func() bool {
		bt, ok1 := cl.mgr.JobCap("bt-1")
		sp, ok2 := cl.mgr.JobCap("sp-1")
		if !ok1 || !ok2 {
			return false
		}
		jobBudget := chaosTarget - workload.NodeIdlePower*12 // 800 W over 4 busy nodes
		return 2*bt+2*sp >= jobBudget-units.Power(1)
	})

	// Caps keep flowing end to end: both GEOPM mailboxes see fresh
	// policies after recovery.
	var seqBT, seqSP uint64
	_, seqBT = gepBT.ReadPolicy()
	_, seqSP = gepSP.ReadPolicy()
	waitFor(t, "policies advance after recovery", func() bool {
		_, s1 := gepBT.ReadPolicy()
		_, s2 := gepSP.ReadPolicy()
		return s1 > seqBT && s2 > seqSP
	})

	// Fault counters prove the chaos actually happened.
	if got := freg.Counter("faults_dropped_frames_total", "").Value(); got == 0 {
		t.Error("no frames dropped; the chaos plan did not bite")
	}
	if disc := ereg.CounterVec("endpoint_disconnects_total", "", "job").With("bt-1").Value() +
		ereg.CounterVec("endpoint_disconnects_total", "", "job").With("sp-1").Value(); disc == 0 {
		t.Error("no endpoint disconnects recorded")
	}

	// Steady state after the chaos: tracking error converges back to the
	// fault-free level.
	time.Sleep(500 * time.Millisecond)
	faulted := tailMeanAbsErr(cl.tracking(), recovered.Add(200*time.Millisecond))
	if math.IsNaN(faulted) {
		t.Fatal("no tracking points after recovery")
	}
	tolerance := clean + 150 // watts, against a 1640 W target
	if faulted > tolerance {
		t.Errorf("post-chaos tracking error %.1f W, clean run %.1f W (tolerance %.1f W)", faulted, clean, tolerance)
	}

	// Tear down and verify nothing leaked: the manager handlers, both
	// daemons, and the compliance loops must all exit.
	cancel()
	cl.ln.Close()
	zraw.Close()
	cl.mgr.Wait()
	waitFor(t, "goroutines recovered", func() bool { return runtime.NumGoroutine() <= before })
}
