package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/durable"
	"repro/internal/geopm"
	"repro/internal/ledger"
	"repro/internal/modeler"
	"repro/internal/nodesim"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/tracein"
	"repro/internal/units"
	"repro/internal/workload"
)

// Microprobes: short timed loops over one public function of one layer,
// on the running workload's own sizes. They run in the traced pass only.

// probe calls fn in batches for at least 30 ms (and 15 batches) and
// returns the median nanoseconds per call.
func probe(batch int, fn func()) float64 {
	var samples []float64
	begin := time.Now()
	for len(samples) < 15 || (time.Since(begin) < 30*time.Millisecond && len(samples) < 5000) {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(batch))
	}
	return median(samples)
}

// probeBudget times the budgeter's map and slice paths on the fleet's own
// job snapshot, as the manager (map) and the simulator (slice) call it.
func probeBudget(f fleet, out map[string]float64) {
	jobs := make([]budget.Job, len(f.jobs))
	for i, j := range f.jobs {
		jobs[i] = budget.Job{ID: j.id, Nodes: j.typ.Nodes, Model: j.typ.RelativeModel()}
	}
	caps := make([]units.Power, len(jobs))
	b := budget.EvenSlowdown{}
	w := units.Power(200 * float64(f.busyNodes))
	out["budget.allocate_us"] = probe(1, func() { b.Allocate(jobs, w) }) / 1e3
	out["budget.allocate_into_us"] = probe(1, func() { b.AllocateInto(jobs, w, caps) }) / 1e3
}

// probeProto times Send and Recv of a SetBudget frame over a loopback TCP
// pair. Frames are sent in rounds small enough to sit in the socket
// buffer, so neither side ever waits for the other.
func probeProto(out map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	srv, err := ln.Accept()
	if err != nil {
		cli.Close()
		return err
	}
	a, b := proto.NewConn(srv), proto.NewConn(cli)
	defer a.Close()
	defer b.Close()
	a.SetTimeouts(0, writeTimeout) // as the manager arms its connections
	env := proto.Envelope{Kind: proto.KindSetBudget, Epoch: 2,
		SetBudget: &proto.SetBudget{JobID: "j0001", PowerCapWatts: 201.337}}

	const round = 100
	var sendNs, recvNs []float64
	var sendAllocs, recvAllocs, frames uint64
	var m0, m1, m2 runtime.MemStats
	for r := 0; r < 20; r++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < round; i++ {
			t := time.Now()
			if err := a.Send(env); err != nil {
				return err
			}
			sendNs = append(sendNs, float64(time.Since(t).Nanoseconds()))
		}
		runtime.ReadMemStats(&m1)
		for i := 0; i < round; i++ {
			t := time.Now()
			if _, err := b.Recv(); err != nil {
				return err
			}
			recvNs = append(recvNs, float64(time.Since(t).Nanoseconds()))
		}
		runtime.ReadMemStats(&m2)
		sendAllocs += m1.Mallocs - m0.Mallocs
		recvAllocs += m2.Mallocs - m1.Mallocs
		frames += round
	}
	out["proto.send_us"] = median(sendNs) / 1e3
	out["proto.recv_us"] = median(recvNs) / 1e3
	out["proto.send_allocs"] = float64(sendAllocs) / float64(frames)
	out["proto.recv_allocs"] = float64(recvAllocs) / float64(frames)
	return nil
}

// probeGEOPM times one agent's register write and energy sample.
func probeGEOPM(out map[string]float64) {
	node := nodesim.NewNode(0, nodesim.Config{Clock: clock.Real{}, NoiseStd: 0.01, Seed: 1})
	node.SetDemand(workload.NodeTDP)
	agent := geopm.NewAgent(geopm.NewPlatformIO(node))
	cap := units.Power(180)
	out["geopm.enforce_ns"] = probe(256, func() {
		cap += 0.25
		if cap > 260 {
			cap = 180
		}
		_ = agent.Enforce(cap) // the node is never failed
	})
	out["geopm.sample_ns"] = probe(256, func() { _, _ = agent.Sample(time.Now()) })
}

// probeModeler times Observe at a history of h observations. Every sample
// completes one epoch at the catalogue model's rate, so one call in ten
// triggers the refit over the whole history. Caps move between levels
// slowly enough that the modeler's stable-cap window accepts the spans.
func probeModeler(h int) (float64, error) {
	model := workload.MustByName("bt.D.81").Model()
	m, err := modeler.New(modeler.Config{Default: model})
	if err != nil {
		return 0, err
	}
	now := clockStart
	i := 0
	observe := func() {
		i++
		cap := units.Power(150 + 20*float64(i/25%6) + float64(i%3))
		now = now.Add(time.Duration(model.TimeAt(cap) * float64(time.Second)))
		m.Observe(geopm.Sample{EpochCount: int64(i), Power: cap, PowerCap: cap, Time: now})
	}
	for m.Observations() < h {
		observe()
	}
	return probe(10, observe) / 1e3, nil
}

// probeDurable times 1000 cap-record appends and the flush that makes
// them durable, on a store in dir.
func probeDurable(dir string, out map[string]float64) error {
	store, _, err := durable.Open(durable.Options{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		return err
	}
	defer store.Close()
	var appendUs, flushMs []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		for i := 0; i < 1000; i++ {
			if err := store.Append(durable.Record{Kind: durable.KindCap, AtMs: int64(r*1000 + i),
				Job: "j" + strconv.Itoa(i), CapW: 200.5 + float64(i)/16}); err != nil {
				return err
			}
		}
		appendUs = append(appendUs, float64(time.Since(t).Nanoseconds())/1e3/1000)
		t = time.Now()
		if err := store.Flush(); err != nil {
			return err
		}
		flushMs = append(flushMs, ms(time.Since(t)))
	}
	out["durable.append_us"] = median(appendUs)
	out["durable.flush_ms"] = median(flushMs)
	return nil
}

// probeSinks times the ledger and telemetry calls the manager makes once
// per job and per series each tick.
func probeSinks(jobs int, out map[string]float64) {
	led := ledger.New()
	handles := make([]ledger.Handle, jobs)
	for i := range handles {
		handles[i] = led.Open(ledger.JobMeta{ID: "j" + strconv.Itoa(i), Type: "bt.D.81", Nodes: 4}, 0)
	}
	i, at := 0, int64(0)
	out["ledger.set_power_ns"] = probe(512, func() {
		if i++; i == jobs {
			i, at = 0, at+1
		}
		led.SetPower(handles[i], at, 700+float64(at%64), false)
	})
	series := telemetry.NewStore().Series("bench_probe_watts")
	t := clockStart
	out["telemetry.record_ns"] = probe(512, func() {
		t = t.Add(250 * time.Millisecond)
		series.Record(t, 201.5)
	})
}

// probes runs the microprobes that need the live controller: the budget
// paths on this fleet, ControlState at this fleet's size, and the
// /metrics text with this fleet's per-job families.
func (s *ctrlSection) probes(out map[string]float64) {
	probeBudget(s.fleet, out)
	var stateMs, exposeMs []float64
	for i := 0; i < 7; i++ {
		t := time.Now()
		s.ctl.mgr.ControlState()
		stateMs = append(stateMs, ms(time.Since(t)))
		t = time.Now()
		_ = s.ctl.reg.WritePrometheus(io.Discard) // io.Discard cannot fail
		exposeMs = append(exposeMs, ms(time.Since(t)))
	}
	out["clustermgr.control_state_ms"] = median(stateMs)
	out["obs.expose_ms"] = median(exposeMs)
}

// probeTracein drains the trace reader alone: parsing and type synthesis
// without the simulator behind it.
func probeTracein(info traceInfo) (float64, error) {
	var rates []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		r, err := tracein.Open(info.path, tracein.Options{MaxNodes: info.nodes})
		if err != nil {
			return 0, err
		}
		rows := 0
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				r.Close()
				return 0, err
			}
			if !ok {
				break
			}
			rows++
		}
		r.Close()
		if rows != info.jobs {
			return 0, fmt.Errorf("trace reader returned %d of %d rows", rows, info.jobs)
		}
		rates = append(rates, float64(rows)/time.Since(t).Seconds())
	}
	return median(rates), nil
}

// microprobes runs the probes that need no live section.
func microprobes(dir string, out map[string]float64) error {
	if err := probeProto(out); err != nil {
		return fmt.Errorf("proto probe: %w", err)
	}
	probeGEOPM(out)
	for _, h := range []struct {
		n    int
		name string
	}{{100, "modeler.observe_us_h100"}, {10000, "modeler.observe_us_h10k"}} {
		us, err := probeModeler(h.n)
		if err != nil {
			return err
		}
		out[h.name] = us
	}
	if err := probeDurable(filepath.Join(dir, "probe-wal"), out); err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set from /proc; 0 where
// that is not available. The watermark is the whole process's, so it
// describes a section only on the workload that has it in focus, where it
// runs first.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
