package geopm

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/nodesim"
	"repro/internal/units"
)

// newWideRuntime builds an n-node runtime on v whose nodes draw 240 W.
func newWideRuntime(tb testing.TB, v *clock.Virtual, n int) (*Runtime, *Endpoint) {
	tb.Helper()
	pios := make([]*PlatformIO, n)
	for i := range pios {
		node := nodesim.NewNode(i, nodesim.Config{Clock: v, NoiseStd: 0.01, Seed: 1})
		node.SetDemand(240)
		pios[i] = NewPlatformIO(node)
	}
	ep := NewEndpoint()
	rt, err := NewRuntime(RuntimeConfig{JobID: "wide", PIOs: pios, Endpoint: ep, Clock: v})
	if err != nil {
		tb.Fatal(err)
	}
	return rt, ep
}

// tickAllocs is the allocations of one control period that carries a
// fresh policy: write it, advance the clock, tick.
func tickAllocs(t *testing.T, n int) float64 {
	v := clock.NewVirtual(t0)
	rt, ep := newWideRuntime(t, v, n)
	cap := units.Power(150)
	return testing.AllocsPerRun(20, func() {
		cap = 310 - cap // alternate 150 W and 160 W
		ep.WritePolicy(Policy{PowerCap: cap})
		v.Advance(DefaultControlPeriod)
		if err := rt.tick(v.Now()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRuntimeTickAllocs pins the period's allocations to a small constant
// (the clock's published time): fanning a cap out and sampling every node
// allocate nothing, per node or per tick.
func TestRuntimeTickAllocs(t *testing.T) {
	small, wide := tickAllocs(t, 16), tickAllocs(t, 1024)
	if wide > 1 || wide != small {
		t.Errorf("fresh-policy period allocates %v at 16 nodes and %v at 1024, want the same ≤ 1", small, wide)
	}
}

// BenchmarkRuntimeTickWide ticks four 1024-node runtimes in parallel on
// one virtual clock, each with a fresh policy, as the cycle-wide fleet
// does every GEOPM period.
func BenchmarkRuntimeTickWide(b *testing.B) {
	v := clock.NewVirtual(t0)
	rts := make([]*Runtime, 4)
	eps := make([]*Endpoint, 4)
	for i := range rts {
		rts[i], eps[i] = newWideRuntime(b, v, 1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Advance(DefaultControlPeriod)
		now := v.Now()
		var wg sync.WaitGroup
		for j, rt := range rts {
			eps[j].WritePolicy(Policy{PowerCap: units.Power(150 + 10*(i%2))})
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := rt.tick(now); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*1024), "ns/node")
}
