// Package nodesim simulates the power behaviour of a dual-socket compute
// node at the register level, standing in for the paper's Intel Xeon Gold
// 6152 nodes (§5.5) whose RAPL MSRs GEOPM reads through the msr-safe kernel
// module (§5.4).
//
// Each node exposes two packages, and each package exposes the two MSRs the
// paper uses: PKG_ENERGY_STATUS (a 32-bit wrapping energy accumulator in
// 2⁻¹⁴ J units) and PKG_POWER_LIMIT (a cap in ⅛ W units). Energy
// accumulates lazily against an injected clock at the package's achieved
// power: the minimum of the enforced cap and the workload's demand, floored
// at idle draw, with optional multiplicative measurement noise.
//
// The higher tiers only ever see these registers (through the geopm
// package), so budgeting, modeling, and tracking logic exercises the same
// read-counter/write-limit code paths it would on real hardware — including
// 32-bit counter wraparound, which occurs every ~15 minutes at full power.
package nodesim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/units"
)

// ErrNodeDown is returned for MSR access on a fail-stopped node, the
// register-level view of a node that lost power: the msr-safe device
// files vanish with the host.
var ErrNodeDown = errors.New("nodesim: node is powered off")

// MSR addresses and encodings mirrored from the Intel SDM subset that
// GEOPM uses.
const (
	// MSRPkgPowerLimit is the RAPL package power-limit register.
	MSRPkgPowerLimit = 0x610
	// MSRPkgEnergyStatus is the RAPL package energy-status register.
	MSRPkgEnergyStatus = 0x611

	// EnergyUnit is joules per PKG_ENERGY_STATUS LSB (2⁻¹⁴ J).
	EnergyUnit = 1.0 / (1 << 14)
	// PowerUnit is watts per PKG_POWER_LIMIT LSB (⅛ W).
	PowerUnit = 0.125
	// powerLimitMask selects the 15-bit power-limit field.
	powerLimitMask = 0x7fff
)

// Per-package hardware limits for the emulated Xeon Gold 6152 (§5.5).
const (
	PackageTDP      units.Power = 140
	PackageMinCap   units.Power = 70
	PackagesPerNode             = 2
)

// ErrUnknownMSR is returned for reads or writes outside the msr-safe
// allowlist (only the two RAPL registers above are granted).
type ErrUnknownMSR struct{ Addr uint32 }

func (e ErrUnknownMSR) Error() string {
	return fmt.Sprintf("nodesim: MSR 0x%x not in msr-safe allowlist", e.Addr)
}

// Package simulates one CPU package's RAPL state.
type Package struct {
	mu         sync.Mutex
	clk        clock.Clock
	lastSettle time.Time
	energyJ    float64     // unwrapped accumulated energy, joules
	limit      units.Power // enforced cap
	demand     units.Power // workload demand (idle draw when no job)
	idle       units.Power
	noise      *stats.RNG
	noiseStd   float64
	failed     bool
}

func newPackage(clk clock.Clock, idle units.Power, noise *stats.RNG, noiseStd float64) *Package {
	return &Package{
		clk:        clk,
		lastSettle: clk.Now(),
		limit:      PackageTDP,
		demand:     idle,
		idle:       idle,
		noise:      noise,
		noiseStd:   noiseStd,
	}
}

// settle integrates energy since the last settle point at the current
// achieved power. Callers hold p.mu.
func (p *Package) settle() {
	now := p.clk.Now()
	dt := now.Sub(p.lastSettle).Seconds()
	if dt <= 0 {
		return
	}
	pw := p.achievedLocked().Watts()
	if p.noise != nil && p.noiseStd > 0 {
		f := 1 + p.noise.Normal(0, p.noiseStd)
		if f < 0 {
			f = 0
		}
		pw *= f
	}
	p.energyJ += pw * dt
	p.lastSettle = now
}

func (p *Package) achievedLocked() units.Power {
	if p.failed {
		return 0
	}
	pw := p.demand
	if p.limit < pw {
		pw = p.limit
	}
	if pw < p.idle {
		pw = p.idle // caps cannot force power below idle draw
	}
	return pw
}

// Achieved returns the package's current (instantaneous) power draw.
func (p *Package) Achieved() units.Power {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.achievedLocked()
}

// SetDemand changes the workload's power demand on this package.
func (p *Package) SetDemand(d units.Power) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle()
	if d < p.idle {
		d = p.idle
	}
	p.demand = d
}

// SetLimit enforces a power cap, clamped to hardware range.
func (p *Package) SetLimit(l units.Power) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle()
	p.limit = l.Clamp(PackageMinCap, PackageTDP)
}

// Limit returns the currently enforced cap.
func (p *Package) Limit() units.Power {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
}

// EnergyJoules returns the unwrapped accumulated energy. The real MSR only
// exposes the wrapping 32-bit view (see ReadMSR); this accessor exists for
// test assertions.
func (p *Package) EnergyJoules() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle()
	return p.energyJ
}

// Fail powers the package off: energy is settled up to the failure
// instant, then the package draws nothing and rejects MSR access.
func (p *Package) Fail() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed {
		return
	}
	p.settle()
	p.failed = true
}

// Recover boots the package back up with fresh hardware state: energy
// counter zeroed, cap back at TDP, demand at idle.
func (p *Package) Recover() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.failed {
		return
	}
	p.failed = false
	p.energyJ = 0
	p.limit = PackageTDP
	p.demand = p.idle
	p.lastSettle = p.clk.Now()
}

// Failed reports whether the package is powered off.
func (p *Package) Failed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// ReadMSR reads a register, enforcing the msr-safe allowlist.
func (p *Package) ReadMSR(addr uint32) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed {
		return 0, ErrNodeDown
	}
	switch addr {
	case MSRPkgEnergyStatus:
		p.settle()
		raw := uint64(p.energyJ/EnergyUnit) & 0xffffffff
		return raw, nil
	case MSRPkgPowerLimit:
		return uint64(p.limit.Watts()/PowerUnit) & powerLimitMask, nil
	default:
		return 0, ErrUnknownMSR{addr}
	}
}

// WriteMSR writes a register, enforcing the msr-safe allowlist.
// PKG_ENERGY_STATUS is read-only, as on hardware. The failure check and
// the write are one critical section, so a cap never lands on a package
// that Fail powered off.
func (p *Package) WriteMSR(addr uint32, val uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed {
		return ErrNodeDown
	}
	switch addr {
	case MSRPkgPowerLimit:
		p.settle()
		p.limit = units.Power(float64(val&powerLimitMask)*PowerUnit).Clamp(PackageMinCap, PackageTDP)
		return nil
	case MSRPkgEnergyStatus:
		return fmt.Errorf("nodesim: MSR 0x%x is read-only", addr)
	default:
		return ErrUnknownMSR{addr}
	}
}

// Node is a dual-package compute node.
type Node struct {
	// ID identifies the node within its cluster.
	ID int
	// Packages are the node's CPU packages.
	Packages [PackagesPerNode]*Package
}

// Config parameterizes node construction.
type Config struct {
	// Clock paces energy integration. Required.
	Clock clock.Clock
	// IdlePower is the node's total draw with no job (split evenly across
	// packages). Defaults to 70 W.
	IdlePower units.Power
	// NoiseStd is the standard deviation of multiplicative measurement
	// noise on achieved power; 0 disables noise.
	NoiseStd float64
	// Seed seeds the node's noise stream.
	Seed uint64
}

// NewNode constructs a node with the given ID.
func NewNode(id int, cfg Config) *Node {
	idle := cfg.IdlePower
	if idle == 0 {
		idle = 70
	}
	var noise *stats.RNG
	if cfg.NoiseStd > 0 {
		noise = stats.NewRNG(cfg.Seed ^ uint64(id)*0x9e3779b97f4a7c15)
	}
	n := &Node{ID: id}
	for i := range n.Packages {
		var pkgNoise *stats.RNG
		if noise != nil {
			pkgNoise = noise.Split()
		}
		n.Packages[i] = newPackage(cfg.Clock, idle/PackagesPerNode, pkgNoise, cfg.NoiseStd)
	}
	return n
}

// SetDemand sets the node's total workload demand, split evenly across
// packages.
func (n *Node) SetDemand(d units.Power) {
	per := d / PackagesPerNode
	for _, p := range n.Packages {
		p.SetDemand(per)
	}
}

// SetPowerLimit enforces a total node cap, split evenly across packages.
func (n *Node) SetPowerLimit(l units.Power) {
	per := l / PackagesPerNode
	for _, p := range n.Packages {
		p.SetLimit(per)
	}
}

// PowerLimit returns the node's total enforced cap.
func (n *Node) PowerLimit() units.Power {
	var sum units.Power
	for _, p := range n.Packages {
		sum += p.Limit()
	}
	return sum
}

// Achieved returns the node's total instantaneous power draw.
func (n *Node) Achieved() units.Power {
	var sum units.Power
	for _, p := range n.Packages {
		sum += p.Achieved()
	}
	return sum
}

// Fail fail-stops the whole node: both packages power off, drawing
// nothing and rejecting MSR access with ErrNodeDown until Recover.
func (n *Node) Fail() {
	for _, p := range n.Packages {
		p.Fail()
	}
}

// Recover boots the node back up with fresh register state (energy
// counters zeroed, caps at TDP, demand at idle).
func (n *Node) Recover() {
	for _, p := range n.Packages {
		p.Recover()
	}
}

// Failed reports whether the node is powered off.
func (n *Node) Failed() bool { return n.Packages[0].Failed() }

// EnergyJoules returns the node's total unwrapped accumulated energy.
func (n *Node) EnergyJoules() float64 {
	var sum float64
	for _, p := range n.Packages {
		sum += p.EnergyJoules()
	}
	return sum
}

// EnergyCounter converts successive wrapping PKG_ENERGY_STATUS readings
// into a monotonic energy total, the unwrap GEOPM performs when deriving
// its CPU_ENERGY signal (§5.4). The zero value is ready to use.
type EnergyCounter struct {
	initialized bool
	last        uint32
	totalJ      float64
}

// Update folds one raw 32-bit reading into the counter and returns the
// monotonic total. The first call establishes the baseline and returns 0.
func (c *EnergyCounter) Update(raw uint32) units.Energy {
	if !c.initialized {
		c.initialized = true
		c.last = raw
		return 0
	}
	delta := raw - c.last // wraps correctly in uint32 arithmetic
	c.last = raw
	c.totalJ += float64(delta) * EnergyUnit
	return units.Energy(c.totalJ)
}

// Total returns the accumulated monotonic energy.
func (c *EnergyCounter) Total() units.Energy { return units.Energy(c.totalJ) }
