package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// None of these tests asserts a time: they must pass on a loaded box.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 9.4, 5.5, 1.2}, 1.95, 7.45},
		{[]float64{10, 12}, 9.5, 12.5},
		{[]float64{5, 1, 4, 2, 8, 9, 7}, 2, 8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileAndHighestTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// The highest tail with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = p%v, want p%v", n, got, want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a: counted once
		{Name: "c", StartNs: 90, EndNs: 130, Parent: 0}, // runs past the root: clipped
		{Name: "a1", StartNs: 15, EndNs: 25, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 40, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if !near(byName["root"], 40e-6) {
		t.Errorf("selfByName root = %v ms, want 40 ns", byName["root"])
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	dir := t.TempDir()
	trace := func(name string, seed uint64) traceInfo {
		info, err := writeTiledTrace(filepath.Join(dir, name), seed, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	a, b, c := trace("a.csv", 1), trace("b.csv", 1), trace("c.csv", 2)
	if a.sha256 != b.sha256 {
		t.Error("same seed gave different traces")
	}
	if a.sha256 == c.sha256 {
		t.Error("different seeds gave the same trace")
	}
	if a.jobs != 2*2*256 || a.nodes != 2*nodesPerCopy {
		t.Errorf("trace has %d jobs on %d nodes", a.jobs, a.nodes)
	}

	walk := func(seed uint64) []float64 {
		k := newWalker(seed)
		out := make([]float64, 500)
		for i := range out {
			out[i] = k.next()
			if out[i] < walkLoW || out[i] > walkHiW {
				t.Fatalf("walk left its range: %v", out[i])
			}
			if i > 0 && (math.Abs(out[i]-out[i-1]) > 3 || out[i] == out[i-1]) {
				t.Fatalf("walk step %v -> %v", out[i-1], out[i])
			}
		}
		return out
	}
	w1, w1b, w2 := walk(1), walk(1), walk(2)
	same := true
	for i := range w1 {
		if w1[i] != w1b[i] {
			t.Fatal("same seed gave different target series")
		}
		same = same && w1[i] == w2[i]
	}
	if same {
		t.Error("different seeds gave the same target series")
	}

	bed := makeFleet(testbedShape, 3)
	if len(bed.jobs) != 10 || bed.busyNodes != 15 || bed.totalNodes != 16 {
		t.Errorf("testbed fleet: %d jobs, %d busy of %d nodes", len(bed.jobs), bed.busyNodes, bed.totalNodes)
	}
	types := func(f fleet) string {
		var s []string
		for _, j := range f.jobs {
			s = append(s, j.typ.Name)
		}
		return strings.Join(s, ",")
	}
	big := fleetShape{jobs: 200, nodesPer: 4}
	if types(makeFleet(big, 1)) != types(makeFleet(big, 1)) || types(makeFleet(big, 1)) == types(makeFleet(big, 2)) {
		t.Error("fleet types do not follow the seed")
	}
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from the harness's %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v differs from the harness's %s/%s/%s", kind, i, g, m.name, m.unit, m.better)
			}
			// Bounds may have been recalibrated; they must stay in range.
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > maxBound)) {
				t.Errorf("%s metric %s: bad bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestQuickSmoke runs all six workloads at smoke size, untraced and
// traced: no operation may fail, every metric BENCHMARK.json names must be
// reported, the traced stages must account for the cycle, and the
// simulator must give the same answer for the same seed.
func TestQuickSmoke(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	out := t.TempDir()
	digest := func(res runResult) string {
		for _, n := range res.notes {
			if i := strings.Index(n, "sim.result_digest "); i >= 0 {
				return n[i:]
			}
		}
		t.Fatal("no sim.result_digest in the run's notes")
		return ""
	}
	digests := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w, seed: 1, seconds: 0.2, traced: traced, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: ops_failed %d of %d attempted", w.name, traced, res.failed, res.attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...)
			}
			for _, m := range want {
				v, ok := res.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not a number (%v)", w.name, traced, m.Name, v)
				}
			}
			for _, m := range bf.EndToEnd {
				if res.metrics[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, res.metrics[m.Name])
				}
			}
			if d, seen := digests[w.name]; seen && d != digest(res) {
				t.Errorf("%s: two seed-1 runs gave different simulator digests", w.name)
			}
			digests[w.name] = digest(res)
			if traced {
				checkStageSums(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
			}
		}
	}
	w, _ := workloadByName("sim-policy")
	res, err := runWorkload(runConfig{workload: w, seed: 2, seconds: 0.2, quick: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if digest(res) == digests["sim-policy"] {
		t.Error("seeds 1 and 2 gave the same simulator digest")
	}
}

// checkStageSums reads a trace file back and checks that, cycle by cycle,
// the four stage self times sum to within 5 % of the cycle without the
// harness's own verification pause.
func checkStageSums(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	stages := map[int]int64{}
	cycle := map[int]int64{}
	for _, ln := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r row
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		switch r.Name {
		case "cycle":
			cycle[r.ID] += r.EndNs - r.StartNs
		case "harness.verify":
			cycle[r.ID] -= r.EndNs - r.StartNs
		case "clustermgr.tick", "endpointd.apply", "geopm.tick", "feedback":
			stages[r.ID] += r.SelfNs
		}
	}
	if len(cycle) == 0 {
		t.Fatalf("%s holds no cycle spans", path)
	}
	for id, total := range cycle {
		if diff := math.Abs(float64(stages[id] - total)); diff > 0.05*float64(total) {
			t.Errorf("%s cycle %d: stages sum to %d ns of %d", path, id, stages[id], total)
		}
	}
}
