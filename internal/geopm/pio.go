// Package geopm reimplements the subset of the Global Extensible Open
// Power Manager (GEOPM) runtime the paper builds on (§4.3, §5.4): a
// platform I/O layer exposing named signals and controls backed by RAPL
// MSRs, per-node agents in the style of the modified power_governor agent,
// a per-job agent tree that fans power caps out to every node (in the
// tree's level order, which is agent index order) and aggregates
// epoch/energy state back up, the endpoint interface through which a
// job-tier process writes policies and reads samples, epoch profiling
// (geopm_prof_epoch), and per-job reports with Application Totals.
//
// The backing hardware is the nodesim register-level simulation; everything
// above PlatformIO is hardware-agnostic, as in real GEOPM.
package geopm

import (
	"fmt"
	"sync"

	"repro/internal/nodesim"
	"repro/internal/units"
)

// Signal and control names mirrored from the GEOPM names the paper cites
// (§5.4).
const (
	// SignalCPUEnergy aggregates package energy from PKG_ENERGY_STATUS
	// into a monotonic joule count.
	SignalCPUEnergy = "CPU_ENERGY"
	// SignalCPUPowerLimit reads back the currently enforced cap.
	SignalCPUPowerLimit = "CPU_POWER_LIMIT"
	// ControlCPUPowerLimit maps to the PKG_POWER_LIMIT MSR.
	ControlCPUPowerLimit = "CPU_POWER_LIMIT_CONTROL"
)

// PlatformIO provides named signal reads and control writes on one node,
// the role GEOPM's PlatformIO service plays on top of msr-safe. It is safe
// for concurrent use.
type PlatformIO struct {
	mu       sync.Mutex
	node     *nodesim.Node
	counters [nodesim.PackagesPerNode]nodesim.EnergyCounter
}

// NewPlatformIO wraps a simulated node. The energy counters are primed so
// the first ReadSignal(SignalCPUEnergy) starts from the node's current
// accumulator rather than a spurious initial delta.
func NewPlatformIO(node *nodesim.Node) *PlatformIO {
	p := &PlatformIO{node: node}
	for i, pkg := range node.Packages {
		raw, err := pkg.ReadMSR(nodesim.MSRPkgEnergyStatus)
		if err == nil {
			p.counters[i].Update(uint32(raw))
		}
	}
	return p
}

// Node returns the underlying simulated node.
func (p *PlatformIO) Node() *nodesim.Node { return p.node }

// ReadSignal reads a named signal. CPU_ENERGY unwraps the 32-bit MSR
// counters into monotonic joules summed across packages; CPU_POWER_LIMIT
// sums the packages' PKG_POWER_LIMIT registers. Both fail with
// nodesim.ErrNodeDown on a fail-stopped node.
func (p *PlatformIO) ReadSignal(name string) (float64, error) {
	switch name {
	case SignalCPUEnergy:
		p.mu.Lock()
		defer p.mu.Unlock()
		var total float64
		for i, pkg := range p.node.Packages {
			raw, err := pkg.ReadMSR(nodesim.MSRPkgEnergyStatus)
			if err != nil {
				return 0, err
			}
			total += p.counters[i].Update(uint32(raw)).Joules()
		}
		return total, nil
	case SignalCPUPowerLimit:
		var total float64
		for _, pkg := range p.node.Packages {
			raw, err := pkg.ReadMSR(nodesim.MSRPkgPowerLimit)
			if err != nil {
				return 0, err
			}
			total += float64(raw) * nodesim.PowerUnit
		}
		return total, nil
	default:
		return 0, fmt.Errorf("geopm: unknown signal %q", name)
	}
}

// WriteControl writes a named control. CPU_POWER_LIMIT_CONTROL distributes
// the node cap across package PKG_POWER_LIMIT registers.
func (p *PlatformIO) WriteControl(name string, value float64) error {
	switch name {
	case ControlCPUPowerLimit:
		per := value / nodesim.PackagesPerNode / nodesim.PowerUnit
		for _, pkg := range p.node.Packages {
			if err := pkg.WriteMSR(nodesim.MSRPkgPowerLimit, uint64(per)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("geopm: unknown control %q", name)
	}
}

// CapRange reports the node cap range the control accepts, derived from the
// per-package hardware limits.
func CapRange() (min, max units.Power) {
	return nodesim.PackageMinCap * nodesim.PackagesPerNode,
		nodesim.PackageTDP * nodesim.PackagesPerNode
}
