package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Everything the program is fed comes from here, and from the seed alone:
// the same seed gives byte-identical fleets, target series and traces.

// jobSpec is one job of a control-cycle fleet.
type jobSpec struct {
	id  string
	typ workload.Type // catalogue type with Nodes set to this job's width
}

// fleetShape sizes a control-cycle fleet. nodesPer 0 selects the paper's
// 16-node testbed mix, where every job keeps its catalogue width.
type fleetShape struct {
	jobs, nodesPer int
}

var testbedShape = fleetShape{jobs: 10}

type fleet struct {
	jobs       []jobSpec
	busyNodes  int
	totalNodes int
}

// makeFleet draws each job's type from the six long-running catalogue
// types. The testbed mix is one job of each type plus two more two-node
// and two more one-node jobs: ten jobs on 15 of 16 nodes, as in §5.5.
func makeFleet(shape fleetShape, seed uint64) fleet {
	rng := stats.NewRNG(seed ^ 0xf1ee7)
	long := workload.LongRunning()
	var f fleet
	add := func(t workload.Type, nodes int) {
		t.Nodes = nodes
		f.jobs = append(f.jobs, jobSpec{id: fmt.Sprintf("j%04d", len(f.jobs)), typ: t})
		f.busyNodes += nodes
	}
	if shape.nodesPer == 0 {
		var wide, narrow []workload.Type
		for _, t := range long {
			add(t, t.Nodes)
			if t.Nodes == 2 {
				wide = append(wide, t)
			} else {
				narrow = append(narrow, t)
			}
		}
		for i := 0; i < 2; i++ {
			t := wide[rng.Intn(len(wide))]
			add(t, t.Nodes)
			t = narrow[rng.Intn(len(narrow))]
			add(t, t.Nodes)
		}
		f.totalNodes = 16
		return f
	}
	for i := 0; i < shape.jobs; i++ {
		add(long[rng.Intn(len(long))], shape.nodesPer)
	}
	f.totalNodes = f.busyNodes
	return f
}

// Per-node target range of the walk. It keeps the budget feasible (above
// the 140 W floor) and below what the fleet would draw uncapped, so the
// budgeter has to move every job's cap each cycle.
const (
	walkLoW = 170.0
	walkHiW = 240.0
)

// walker yields the per-busy-node power target one cycle at a time: a
// seeded walk that moves 1 to 3 W a step and reflects at the range ends.
// Steps stay under the modeler's 6 W stable-cap window so its observations
// are accepted, as they are under the paper's slowly moving targets.
type walker struct {
	rng *stats.RNG
	w   float64
}

func newWalker(seed uint64) *walker {
	rng := stats.NewRNG(seed ^ 0x7a26e7)
	return &walker{rng: rng, w: rng.Uniform(190, 220)}
}

func (k *walker) next() float64 {
	step := k.rng.Uniform(1, 3)
	if k.rng.Intn(2) == 0 {
		step = -step
	}
	k.w += step
	if k.w > walkHiW {
		k.w = 2*walkHiW - k.w
	}
	if k.w < walkLoW {
		k.w = 2*walkLoW - k.w
	}
	return k.w
}

//go:embed testdata/pwa_sdsc_sp2_sample.csv
var sampleTrace string

// The checked-in sample spans about 27 minutes; 53 tiles at this period
// would make a 24 h trace. One copy of the sample keeps about 5120 nodes busy.
const (
	tilePeriod    = 1630 * time.Second
	nodesPerCopy  = 5120
	traceJitterMs = 5000
)

type traceRow struct {
	submitMs int64
	id       string
	nodes    int
	durS     string
}

// traceInfo describes a generated trace file.
type traceInfo struct {
	path    string
	jobs    int
	nodes   int
	horizon time.Duration
	sha256  string
}

// writeTiledTrace tiles the sample trace tiles times in time and copies
// times side by side, jitters every submission by up to five seconds from
// the seed, and writes the merged, time-ordered CSV that tracein reads.
func writeTiledTrace(path string, seed uint64, tiles, copies int) (traceInfo, error) {
	lines := strings.Split(strings.TrimSpace(sampleTrace), "\n")
	header, lines := lines[0], lines[1:]
	base := make([]traceRow, 0, len(lines))
	for _, ln := range lines {
		f := strings.Split(ln, ",")
		if len(f) != 4 {
			return traceInfo{}, fmt.Errorf("sample trace: bad row %q", ln)
		}
		submit, err1 := strconv.ParseFloat(f[0], 64)
		nodes, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return traceInfo{}, fmt.Errorf("sample trace: bad row %q", ln)
		}
		base = append(base, traceRow{submitMs: int64(submit * 1000), id: f[1], nodes: nodes, durS: f[3]})
	}
	rng := stats.NewRNG(seed ^ 0x7ace)
	rows := make([]traceRow, 0, len(base)*tiles*copies)
	for t := 0; t < tiles; t++ {
		for c := 0; c < copies; c++ {
			for _, b := range base {
				r := b
				r.submitMs += int64(t)*tilePeriod.Milliseconds() + int64(rng.Intn(traceJitterMs))
				r.id = fmt.Sprintf("c%d-t%02d-%s", c, t, b.id)
				rows = append(rows, r)
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].submitMs < rows[j].submitMs })

	f, err := os.Create(path)
	if err != nil {
		return traceInfo{}, err
	}
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintf(w, "%d.%03d,%s,%d,%s\n", r.submitMs/1000, r.submitMs%1000, r.id, r.nodes, r.durS)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return traceInfo{}, err
	}
	if err := f.Close(); err != nil {
		return traceInfo{}, err
	}
	return traceInfo{
		path: path, jobs: len(rows), nodes: copies * nodesPerCopy,
		horizon: time.Duration(tiles) * tilePeriod,
		sha256:  hex.EncodeToString(h.Sum(nil)),
	}, nil
}
