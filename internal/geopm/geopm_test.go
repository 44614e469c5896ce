package geopm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/nodesim"
	"repro/internal/obs"
	"repro/internal/units"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newPIO(v *clock.Virtual, id int) *PlatformIO {
	return NewPlatformIO(nodesim.NewNode(id, nodesim.Config{Clock: v}))
}

func TestPlatformIOEnergySignal(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	pio.Node().SetDemand(280)
	if e0, err := pio.ReadSignal(SignalCPUEnergy); err != nil || e0 != 0 {
		t.Fatalf("initial CPU_ENERGY = %v, %v; want 0, nil", e0, err)
	}
	v.Advance(10 * time.Second)
	e, err := pio.ReadSignal(SignalCPUEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2800) > 1 {
		t.Errorf("CPU_ENERGY after 10 s at 280 W = %v J, want ≈2800", e)
	}
}

func TestPlatformIOEnergyMonotoneAcrossWrap(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	pio.Node().SetDemand(280)
	prev := 0.0
	// 40 × 60 s = 2400 s at 280 W crosses the 32-bit wrap (~936 s/pkg).
	for i := 0; i < 40; i++ {
		v.Advance(time.Minute)
		e, err := pio.ReadSignal(SignalCPUEnergy)
		if err != nil {
			t.Fatal(err)
		}
		if e < prev {
			t.Fatalf("CPU_ENERGY regressed: %v < %v at step %d", e, prev, i)
		}
		prev = e
	}
	if math.Abs(prev-280*2400) > 0.01*280*2400 {
		t.Errorf("total = %v J, want ≈%v", prev, 280*2400)
	}
}

func TestPlatformIOPowerLimitControl(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	if err := pio.WriteControl(ControlCPUPowerLimit, 200); err != nil {
		t.Fatal(err)
	}
	w, err := pio.ReadSignal(SignalCPUPowerLimit)
	if err != nil {
		t.Fatal(err)
	}
	if w != 200 {
		t.Errorf("CPU_POWER_LIMIT = %v, want 200", w)
	}
	if got := pio.Node().PowerLimit(); got != 200 {
		t.Errorf("node PowerLimit = %v", got)
	}
}

func TestPlatformIOUnknownNames(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	if _, err := pio.ReadSignal("FREQUENCY"); err == nil {
		t.Error("unknown signal did not error")
	}
	if err := pio.WriteControl("FREQUENCY_CONTROL", 1); err == nil {
		t.Error("unknown control did not error")
	}
}

func TestCapRange(t *testing.T) {
	min, max := CapRange()
	if min != 140 || max != 280 {
		t.Errorf("CapRange = %v, %v; want 140, 280", min, max)
	}
}

// orderClock is one node's view of a shared virtual clock that logs the
// node's ID whenever a package reads the time, as each package does when
// a cap lands on its PKG_POWER_LIMIT register.
type orderClock struct {
	*clock.Virtual
	id  int
	log *[]int
}

func (c orderClock) Now() time.Time {
	*c.log = append(*c.log, c.id)
	return c.Virtual.Now()
}

func TestEnforceAllWalksLevelOrderSkippingFailed(t *testing.T) {
	v := clock.NewVirtual(t0)
	var log []int
	const n, dead = 11, 4
	pios := make([]*PlatformIO, n)
	for i := range pios {
		pios[i] = NewPlatformIO(nodesim.NewNode(i, nodesim.Config{Clock: orderClock{v, i, &log}}))
	}
	pios[dead].Node().Fail()
	rt, err := NewRuntime(RuntimeConfig{PIOs: pios, Endpoint: NewEndpoint(), Clock: v, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(time.Second)
	log = log[:0]
	live, err := rt.enforceAll(170)
	if err != nil || live != n-1 {
		t.Fatalf("enforceAll = %d, %v; want %d live, nil", live, err, n-1)
	}
	if got := rt.metNodeErrs.Value(); got != 1 {
		t.Errorf("node errors counted = %d, want 1", got)
	}
	// The tree is heap-indexed, so its level order is index order: each
	// live node's two packages take the cap in turn, the dead one's none.
	var want []int
	for i := 0; i < n; i++ {
		if i != dead {
			want = append(want, i, i)
		}
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("caps landed in node order %v, want %v", log, want)
	}
	for i, pio := range pios {
		wantCap := units.Power(170)
		if i == dead {
			wantCap = nodesim.PackageTDP * nodesim.PackagesPerNode
		}
		if got := pio.Node().PowerLimit(); got != wantCap {
			t.Errorf("node %d cap = %v, want %v", i, got, wantCap)
		}
	}

	for _, pio := range pios {
		pio.Node().Fail()
	}
	if live, err := rt.enforceAll(170); live != 0 || !errors.Is(err, nodesim.ErrNodeDown) {
		t.Errorf("all nodes down: enforceAll = %d, %v; want 0, ErrNodeDown", live, err)
	}
}

func TestEnforcedCapFailsOnDeadNode(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	a := NewAgent(pio)
	if err := a.Enforce(160); err != nil {
		t.Fatal(err)
	}
	pio.Node().Fail()
	if got, err := a.EnforcedCap(); !errors.Is(err, nodesim.ErrNodeDown) {
		t.Errorf("EnforcedCap on a dead node = %v, %v; want ErrNodeDown", got, err)
	}
	if _, err := pio.ReadSignal(SignalCPUEnergy); !errors.Is(err, nodesim.ErrNodeDown) {
		t.Errorf("CPU_ENERGY on a dead node err = %v, want ErrNodeDown", err)
	}
	pio.Node().Recover()
	if got, err := a.EnforcedCap(); err != nil || got != nodesim.PackageTDP*nodesim.PackagesPerNode {
		t.Errorf("EnforcedCap after recovery = %v, %v; want TDP", got, err)
	}
}

func TestEndpointSequencing(t *testing.T) {
	e := NewEndpoint()
	if _, seq := e.ReadPolicy(); seq != 0 {
		t.Error("fresh endpoint has nonzero policy seq")
	}
	if _, seq := e.ReadSample(); seq != 0 {
		t.Error("fresh endpoint has nonzero sample seq")
	}
	e.WritePolicy(Policy{PowerCap: 210})
	p, seq := e.ReadPolicy()
	if seq != 1 || p.PowerCap != 210 {
		t.Errorf("policy = %+v seq %d", p, seq)
	}
	e.WritePolicy(Policy{PowerCap: 180})
	if _, seq := e.ReadPolicy(); seq != 2 {
		t.Errorf("seq = %d after second write", seq)
	}
	e.WriteSample(Sample{EpochCount: 5})
	s, sseq := e.ReadSample()
	if sseq != 1 || s.EpochCount != 5 {
		t.Errorf("sample = %+v seq %d", s, sseq)
	}
}

func TestAgentSamplePower(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	pio.Node().SetDemand(220)
	a := NewAgent(pio)
	if _, err := a.Sample(v.Now()); err != nil {
		t.Fatal(err)
	}
	v.Advance(4 * time.Second)
	s, err := a.Sample(v.Now())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Power.Watts()-220) > 0.5 {
		t.Errorf("derived power = %v, want ≈220", s.Power)
	}
	if math.Abs(s.Energy.Joules()-880) > 1 {
		t.Errorf("energy = %v, want ≈880", s.Energy)
	}
}

func TestAgentEnforce(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	a := NewAgent(pio)
	if err := a.Enforce(160); err != nil {
		t.Fatal(err)
	}
	got, err := a.EnforcedCap()
	if err != nil {
		t.Fatal(err)
	}
	if got != 160 {
		t.Errorf("EnforcedCap = %v, want 160", got)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	v := clock.NewVirtual(t0)
	ep := NewEndpoint()
	if _, err := NewRuntime(RuntimeConfig{Endpoint: ep, Clock: v}); err != ErrNoNodes {
		t.Errorf("no nodes: err = %v", err)
	}
	pio := newPIO(v, 0)
	if _, err := NewRuntime(RuntimeConfig{PIOs: []*PlatformIO{pio}, Clock: v}); err == nil {
		t.Error("missing endpoint accepted")
	}
	if _, err := NewRuntime(RuntimeConfig{PIOs: []*PlatformIO{pio}, Endpoint: ep}); err == nil {
		t.Error("missing clock accepted")
	}
}

// startRuntime runs rt.Run on a goroutine and returns a cancel+join func.
func startRuntime(t *testing.T, rt *Runtime) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("runtime did not stop")
		}
	}
}

// waitSampleSeq polls until the endpoint's sample sequence reaches at least
// want, driving the virtual clock forward by the runtime period as needed.
func waitSampleSeq(t *testing.T, v *clock.Virtual, ep *Endpoint, period time.Duration, want uint64) Sample {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, seq := ep.ReadSample()
		if seq >= want {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("sample seq stuck at %d, want %d", seq, want)
		}
		if v.PendingWaiters() > 0 {
			v.Advance(period)
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestRuntimeAppliesPolicyToAllNodes(t *testing.T) {
	v := clock.NewVirtual(t0)
	pios := []*PlatformIO{newPIO(v, 0), newPIO(v, 1), newPIO(v, 2), newPIO(v, 3)}
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "job1", PIOs: pios, Endpoint: ep, Clock: v, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	defer stop()

	waitSampleSeq(t, v, ep, time.Second, 1)
	ep.WritePolicy(Policy{PowerCap: 170})
	s := waitSampleSeq(t, v, ep, time.Second, 3)
	if s.PowerCap != 170 {
		t.Errorf("sample echoes cap %v, want 170", s.PowerCap)
	}
	for i, pio := range pios {
		if got := pio.Node().PowerLimit(); got != 170 {
			t.Errorf("node %d cap = %v, want 170", i, got)
		}
	}
	if rt.Cap() != 170 {
		t.Errorf("runtime Cap = %v", rt.Cap())
	}
}

func TestRuntimeAggregatesEnergyAndPower(t *testing.T) {
	v := clock.NewVirtual(t0)
	pios := []*PlatformIO{newPIO(v, 0), newPIO(v, 1)}
	for _, pio := range pios {
		pio.Node().SetDemand(200)
	}
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "agg", PIOs: pios, Endpoint: ep, Clock: v, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	defer stop()

	s := waitSampleSeq(t, v, ep, time.Second, 6)
	// Two nodes at 200 W: aggregate power ≈400 W once a full period has
	// been observed.
	if math.Abs(s.Power.Watts()-400) > 1 {
		t.Errorf("aggregate power = %v, want ≈400", s.Power)
	}
	if s.Energy <= 0 {
		t.Errorf("aggregate energy = %v, want > 0", s.Energy)
	}
}

func TestRuntimeEpochCounting(t *testing.T) {
	v := clock.NewVirtual(t0)
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "ep", PIOs: []*PlatformIO{newPIO(v, 0)}, Endpoint: ep, Clock: v, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	defer stop()
	waitSampleSeq(t, v, ep, time.Second, 1)
	for i := 0; i < 42; i++ {
		rt.ProfEpoch()
	}
	s := waitSampleSeq(t, v, ep, time.Second, 3)
	if s.EpochCount != 42 {
		t.Errorf("sample epoch count = %d, want 42", s.EpochCount)
	}
	if rt.EpochCount() != 42 {
		t.Errorf("EpochCount = %d", rt.EpochCount())
	}
}

func TestRuntimeRestoresTDPOnStop(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "r", PIOs: []*PlatformIO{pio}, Endpoint: ep, Clock: v, Period: time.Second, InitialCap: 150})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	waitSampleSeq(t, v, ep, time.Second, 1)
	if got := pio.Node().PowerLimit(); got != 150 {
		t.Errorf("initial cap = %v, want 150", got)
	}
	stop()
	if got := pio.Node().PowerLimit(); got != 280 {
		t.Errorf("cap after stop = %v, want restored TDP 280", got)
	}
}

func TestRuntimeReport(t *testing.T) {
	v := clock.NewVirtual(t0)
	pio := newPIO(v, 0)
	pio.Node().SetDemand(250)
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "rpt", PIOs: []*PlatformIO{pio}, Endpoint: ep, Clock: v, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	for i := 0; i < 10; i++ {
		rt.ProfEpoch()
	}
	waitSampleSeq(t, v, ep, time.Second, 11)
	rt.RecordAppTotals(9.5, 10)
	stop()
	rep := rt.Report()
	if rep.JobID != "rpt" || rep.Nodes != 1 {
		t.Errorf("report identity: %+v", rep)
	}
	if rep.Epochs != 10 || rep.AppEpochs != 10 {
		t.Errorf("report epochs = %d/%d, want 10/10", rep.Epochs, rep.AppEpochs)
	}
	if rep.AppSeconds != 9.5 {
		t.Errorf("AppSeconds = %v", rep.AppSeconds)
	}
	if rep.Elapsed < 10 {
		t.Errorf("Elapsed = %v, want ≥ 10 (ticks advanced)", rep.Elapsed)
	}
	if math.Abs(rep.AvgPower.Watts()-250) > 5 {
		t.Errorf("AvgPower = %v, want ≈250", rep.AvgPower)
	}
	text := rep.String()
	for _, want := range []string{"Application Totals", "epoch-count: 10", "GEOPM Report: rpt"} {
		if !contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
