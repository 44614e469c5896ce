package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/durable"
	"repro/internal/endpointd"
	"repro/internal/geopm"
	"repro/internal/ledger"
	"repro/internal/modeler"
	"repro/internal/nodesim"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Settings anord and anor-endpoint ship with; the harness changes none.
const (
	walFlushEvery    = 50 * time.Millisecond
	heartbeatTimeout = 10 * time.Second
	modelTTL         = 30 * time.Second
	writeTimeout     = 5 * time.Second
	geopmPeriod      = geopm.DefaultControlPeriod
	reportPeriod     = endpointd.DefaultPeriod
	opTimeout        = 5 * time.Second
)

// controller is the cluster tier wired as cmd/anord wires it: durable
// store, ledger, registry, telemetry store, manager on the real clock,
// serving a loopback TCP listener. Only the tracer is left off.
type controller struct {
	reg   *obs.Registry
	store *durable.Store
	rec   *durable.Recovery
	led   *ledger.Ledger
	mgr   *clustermgr.Manager
	ln    net.Listener

	// updates is anord_model_updates_total, fetched once: the driver
	// reads it in a spin loop and must not contend for the registry.
	updates *obs.Counter

	targetBits atomic.Uint64
	served     chan struct{}
	// openStart and openEnd bracket durable.Open, the replay stage of a
	// recovery.
	openStart, openEnd time.Time
}

func (c *controller) setTarget(w float64) { c.targetBits.Store(math.Float64bits(w)) }

// counter reads one of the program's own counters from the registry the
// harness handed it.
func (c *controller) counter(name string) uint64 { return c.reg.Counter(name, "").Value() }

// startController opens (or recovers) the state directory and starts a
// manager over it. down, when non-nil, counts what the manager writes.
func startController(dir string, snapshotEvery time.Duration, totalNodes int, down *wireCount) (*controller, error) {
	c := &controller{reg: obs.NewRegistry(), served: make(chan struct{})}
	c.openStart = time.Now()
	store, rec, err := durable.Open(durable.Options{
		Dir: dir, FlushEvery: walFlushEvery, SnapshotEvery: snapshotEvery, Metrics: c.reg,
	})
	c.openEnd = time.Now()
	if err != nil {
		return nil, fmt.Errorf("opening state dir: %w", err)
	}
	c.store, c.rec, c.led = store, rec, rec.Ledger

	typeModels := map[string]perfmodel.Model{}
	for _, t := range workload.Catalog() {
		typeModels[t.Name] = t.RelativeModel()
	}
	c.mgr, err = clustermgr.NewManager(clustermgr.Config{
		Clock:    clock.Real{},
		Budgeter: budget.EvenSlowdown{},
		Target: func(time.Time) units.Power {
			return units.Power(math.Float64frombits(c.targetBits.Load()))
		},
		TotalNodes:       totalNodes,
		IdlePower:        workload.NodeIdlePower,
		TypeModels:       typeModels,
		DefaultModel:     workload.LeastSensitive().RelativeModel(),
		UseFeedback:      true,
		HeartbeatTimeout: heartbeatTimeout,
		ModelTTL:         modelTTL,
		WriteTimeout:     writeTimeout,
		Metrics:          c.reg,
		Telemetry:        telemetry.NewStore(),
		Ledger:           c.led,
		Store:            store,
		Recovered:        rec.State,
		Reserve:          1100,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	c.updates = c.reg.Counter("anord_model_updates_total", "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	c.ln = ln
	if down != nil {
		c.ln = countingListener{ln, down}
	}
	go func() {
		defer close(c.served)
		_ = c.mgr.Serve(c.ln) // returns when stop closes the listener
	}()
	return c, nil
}

// stop drains the manager and closes the store. The endpoints should be
// stopped first so their sessions end with a Goodbye.
func (c *controller) stop() error {
	c.ln.Close()
	<-c.served
	c.mgr.CloseSessions()
	c.mgr.Wait()
	return c.store.Close()
}

// jobRig is the job tier of one job, as cmd/anor-endpoint builds it: the
// GEOPM mailbox, an endpoint daemon on a TCP connection, and (for the
// control cycle) a GEOPM runtime over simulated nodes.
type jobRig struct {
	spec    jobSpec
	model   perfmodel.Model
	mailbox *geopm.Endpoint
	rt      *geopm.Runtime
	nodes   []*nodesim.Node
	// owed is the fraction of an epoch the application has completed
	// since its last geopm_prof_epoch call.
	owed float64
	// seenPolicy is the mailbox policy sequence the driver last waited for.
	seenPolicy uint64
}

// fleetRig is the fleet under control. Runtimes and nodes run on virtual
// clock A, endpoint report loops on virtual clock B, so the driver decides
// when the GEOPM tick and the report happen.
type fleetRig struct {
	jobs       []*jobRig
	clkA, clkB *clock.Virtual
	cancel     context.CancelFunc
	wg         sync.WaitGroup
}

var clockStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// connectFleet builds every job's rig and connects it to addr, dialers
// connections at a time. Without runtimes a rig is a mailbox and an
// endpoint daemon only, which is all a recovery needs. up, when non-nil,
// counts what the endpoints write.
func connectFleet(f fleet, addr string, seed uint64, withRuntimes bool, dialers int, up *wireCount) (*fleetRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &fleetRig{
		clkA: clock.NewVirtual(clockStart), clkB: clock.NewVirtual(clockStart),
		cancel: cancel, jobs: make([]*jobRig, len(f.jobs)),
	}
	nodeID := 0
	for i, spec := range f.jobs {
		j := &jobRig{spec: spec, model: spec.typ.Model(), mailbox: geopm.NewEndpoint()}
		if withRuntimes {
			pios := make([]*geopm.PlatformIO, spec.typ.Nodes)
			for n := range pios {
				node := nodesim.NewNode(nodeID, nodesim.Config{Clock: r.clkA, NoiseStd: 0.01, Seed: seed})
				nodeID++
				node.SetDemand(spec.typ.PMax)
				j.nodes = append(j.nodes, node)
				pios[n] = geopm.NewPlatformIO(node)
			}
			rt, err := geopm.NewRuntime(geopm.RuntimeConfig{
				JobID: spec.id, PIOs: pios, Endpoint: j.mailbox, Clock: r.clkA,
			})
			if err != nil {
				cancel()
				return nil, err
			}
			j.rt = rt
		}
		r.jobs[i] = j
	}

	if dialers < 1 {
		dialers = 1
	}
	errs := make(chan error, dialers)
	var next atomic.Int64
	var dial sync.WaitGroup
	for d := 0; d < dialers; d++ {
		dial.Add(1)
		go func() {
			defer dial.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.jobs) {
					return
				}
				if err := r.start(ctx, r.jobs[i], addr, up); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	dial.Wait()
	select {
	case err := <-errs:
		r.stop()
		return nil, err
	default:
	}
	if withRuntimes {
		r.clkA.WaitForWaiters(len(r.jobs))
	}
	r.clkB.WaitForWaiters(len(r.jobs))
	return r, nil
}

// start launches one job's daemon (and runtime) goroutines.
func (r *fleetRig) start(ctx context.Context, j *jobRig, addr string, up *wireCount) error {
	mdl, err := modeler.New(modeler.Config{Default: j.model})
	if err != nil {
		return err
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if up != nil {
		raw = countingConn{raw, up}
	}
	epd, err := endpointd.New(endpointd.Config{
		JobID: j.spec.id, TypeName: j.spec.typ.Name, Nodes: j.spec.typ.Nodes,
		Conn: proto.NewConn(raw), GEOPM: j.mailbox, Modeler: mdl,
		Clock: r.clkB, Ledger: ledger.New(),
	})
	if err != nil {
		raw.Close()
		return err
	}
	if j.rt != nil {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = j.rt.Run(ctx) // node errors cannot occur: no node is failed
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = epd.Run(ctx) // a transport error shows as a missed cap or update
	}()
	return nil
}

// stop ends every daemon and runtime and waits for them.
func (r *fleetRig) stop() {
	r.cancel()
	r.wg.Wait()
}

// more reports whether a timed loop should run iteration i: always up to
// the floor minN, never past the cap maxN (when positive), and otherwise
// until the time budget is used.
func more(i int, begin time.Time, budget time.Duration, minN, maxN int) bool {
	if maxN > 0 && i >= maxN {
		return false
	}
	return i < minN || time.Since(begin) < budget
}

// spinUntil yields the processor until cond holds or opTimeout passes.
// The driver spins rather than sleeps because the stages it waits for
// take tens of microseconds, well under a timer's resolution.
func spinUntil(cond func() bool) bool {
	deadline := time.Now().Add(opTimeout)
	for n := 0; !cond(); n++ {
		runtime.Gosched()
		if n&1023 == 1023 && time.Now().After(deadline) {
			return false
		}
	}
	return true
}
