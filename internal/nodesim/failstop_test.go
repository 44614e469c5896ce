package nodesim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestFailStopCutsMSRsAndPower(t *testing.T) {
	v := clock.NewVirtual(t0)
	n := newTestNode(v)
	n.SetDemand(240)
	v.Advance(5 * time.Second)

	n.Fail()
	if !n.Failed() {
		t.Fatal("node not failed after Fail")
	}
	if got := n.Achieved(); got != 0 {
		t.Errorf("failed node Achieved = %v, want 0 W", got)
	}
	for _, pkg := range n.Packages {
		if _, err := pkg.ReadMSR(MSRPkgEnergyStatus); !errors.Is(err, ErrNodeDown) {
			t.Errorf("energy read on failed package err = %v, want ErrNodeDown", err)
		}
		if _, err := pkg.ReadMSR(MSRPkgPowerLimit); !errors.Is(err, ErrNodeDown) {
			t.Errorf("limit read on failed package err = %v, want ErrNodeDown", err)
		}
		if err := pkg.WriteMSR(MSRPkgPowerLimit, 100/PowerUnit); !errors.Is(err, ErrNodeDown) {
			t.Errorf("limit write on failed package err = %v, want ErrNodeDown", err)
		}
	}
	// No energy accrues while the node is down.
	before := n.EnergyJoules()
	v.Advance(time.Minute)
	if after := n.EnergyJoules(); after != before {
		t.Errorf("failed node accrued energy: %v -> %v J", before, after)
	}

	// Fail is idempotent.
	n.Fail()
	if !n.Failed() {
		t.Fatal("second Fail flipped the node back on")
	}
}

func TestRecoverIsAFreshBoot(t *testing.T) {
	v := clock.NewVirtual(t0)
	n := newTestNode(v)
	n.SetDemand(240)
	n.SetPowerLimit(180)
	v.Advance(10 * time.Second)
	if n.EnergyJoules() == 0 {
		t.Fatal("no energy before failure")
	}

	n.Fail()
	v.Advance(time.Minute)
	n.Recover()
	if n.Failed() {
		t.Fatal("node still failed after Recover")
	}
	// A reboot: energy counters zeroed, cap back at hardware default,
	// demand back at idle.
	if got := n.EnergyJoules(); got != 0 {
		t.Errorf("energy after recovery = %v J, want 0", got)
	}
	if got := n.PowerLimit(); got != PackageTDP*PackagesPerNode {
		t.Errorf("limit after recovery = %v, want %v", got, PackageTDP*PackagesPerNode)
	}
	for _, pkg := range n.Packages {
		if _, err := pkg.ReadMSR(MSRPkgEnergyStatus); err != nil {
			t.Errorf("energy read after recovery: %v", err)
		}
	}
	// The recovered node runs again and meters energy from zero.
	n.SetDemand(140)
	v.Advance(time.Second)
	if got := n.EnergyJoules(); got <= 0 {
		t.Errorf("recovered node accrued no energy (%v J)", got)
	}
}

// TestWriteMSRNeverLandsOnFailedPackage hammers PKG_POWER_LIMIT writes
// while the package fail-stops: once Fail returns, no write may change
// the limit until Recover, and every later write fails.
func TestWriteMSRNeverLandsOnFailedPackage(t *testing.T) {
	v := clock.NewVirtual(t0)
	p := newTestNode(v).Packages[0]
	const writers = 4
	for round := 0; round < 100; round++ {
		p.Recover()
		var stop atomic.Bool
		var started, wg sync.WaitGroup
		started.Add(writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				started.Done()
				// Distinct caps, 70–139.875 W, so a stray write shows.
				for i := w; !stop.Load(); i += writers {
					_ = p.WriteMSR(MSRPkgPowerLimit, uint64(560+i%560))
				}
			}(w)
		}
		started.Wait()
		p.Fail()
		limit := p.Limit()
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		if err := p.WriteMSR(MSRPkgPowerLimit, 600); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("round %d: write after Fail err = %v, want ErrNodeDown", round, err)
		}
		stop.Store(true)
		wg.Wait()
		if got := p.Limit(); got != limit {
			t.Fatalf("round %d: limit of a failed package moved from %v to %v", round, limit, got)
		}
	}
}
