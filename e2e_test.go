package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/units"
)

// TestEndToEndDaemons builds the real binaries and runs the deployment
// the README describes: anord on a TCP port with a target-schedule file,
// plus two anor-endpoint processes running short benchmarks — one of
// them misclassified. It verifies the endpoints complete, print GEOPM
// reports, and that the manager logged tracking state. This is the
// closest the repository gets to the paper's 16-node deployment: real
// processes, real sockets, real wall-clock control loops.
func TestEndToEndDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e in -short mode")
	}
	dir := t.TempDir()
	build := func(name string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	anord := build("anord")
	endpoint := build("anor-endpoint")
	anortrace := build("anor-trace")

	// Static-ish target file: 800 W for the 4-node experiment.
	targets := filepath.Join(dir, "targets.jsonl")
	f, err := os.Create(targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.WriteTargets(f, []schedule.TargetPoint{{At: 0, Target: units.Power(800)}}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	port := freePort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	adminAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	events := filepath.Join(dir, "events.jsonl")
	mgrOut := &bytes.Buffer{}
	mgr := exec.Command(anord,
		"-listen", addr, "-nodes", "4", "-targets", targets,
		"-budgeter", "even-slowdown", "-feedback", "-period", "500ms",
		"-metrics", adminAddr, "-events", events)
	mgr.Stdout = mgrOut
	mgr.Stderr = mgrOut
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	// The trace analysis below needs anord stopped first (its event
	// stream flushes on shutdown), so the stop is a named step the defer
	// merely backstops.
	var stopMgrOnce sync.Once
	stopMgr := func() {
		stopMgrOnce.Do(func() {
			mgr.Process.Signal(os.Interrupt)
			done := make(chan struct{})
			go func() { mgr.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				mgr.Process.Kill()
				<-done
			}
			t.Logf("anord output:\n%s", mgrOut.String())
		})
	}
	defer stopMgr()
	waitForListener(t, addr)

	// Two short jobs in parallel; one claims the wrong type.
	type jobRun struct {
		out *bytes.Buffer
		cmd *exec.Cmd
	}
	run := func(id, bench, claim string) jobRun {
		out := &bytes.Buffer{}
		args := []string{"-cluster", addr, "-job", id, "-bench", bench,
			"-events", filepath.Join(dir, "events-"+id+".jsonl")}
		if claim != "" {
			args = append(args, "-claim", claim)
		}
		c := exec.Command(endpoint, args...)
		c.Stdout = out
		c.Stderr = out
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return jobRun{out: out, cmd: c}
	}
	j1 := run("j1", "is.D.32", "")
	j2 := run("j2", "is.D.32", "ep.D.43")

	// While the jobs run, scrape the live admin endpoint: the two
	// endpoints must show up as connected, the 800 W target must be
	// exported, and the health/pprof handlers must answer.
	scrapeAdminEndpoint(t, adminAddr)

	for _, j := range []jobRun{j1, j2} {
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(j.cmd)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("endpoint exited with %v\n%s", err, j.out.String())
			}
		case <-time.After(3 * time.Minute):
			j.cmd.Process.Kill()
			t.Fatalf("endpoint did not finish\n%s", j.out.String())
		}
	}

	for i, j := range []jobRun{j1, j2} {
		text := j.out.String()
		for _, want := range []string{"GEOPM Report", "Application Totals", "Slowdown vs uncapped"} {
			if !strings.Contains(text, want) {
				t.Errorf("endpoint %d output missing %q:\n%s", i+1, want, text)
			}
		}
	}

	// The -events stream is flushed periodically and on shutdown; by now
	// at least the periodic flush should have landed rebudget spans.
	if raw, err := os.ReadFile(events); err != nil {
		t.Errorf("reading events file: %v", err)
	} else if !strings.Contains(string(raw), `"name":"rebudget"`) {
		t.Errorf("events file has no rebudget spans:\n%.2000s", raw)
	}

	// Stop anord so its final event flush lands, then reconstruct the
	// causal chains across all three processes' event files: real
	// decisions made over a real socket must come back as complete
	// decision → enforcement chains with positive latency and no
	// orphaned spans.
	stopMgr()
	traceOut, err := exec.Command(anortrace, "-json",
		events,
		filepath.Join(dir, "events-j1.jsonl"),
		filepath.Join(dir, "events-j2.jsonl"),
	).CombinedOutput()
	if err != nil {
		t.Fatalf("anor-trace: %v\n%s", err, traceOut)
	}
	var summary struct {
		CompleteChains int     `json:"complete_chains"`
		OrphanSpans    int     `json:"orphan_spans"`
		LatencyP50     float64 `json:"latency_p50_seconds"`
	}
	if err := json.Unmarshal(traceOut, &summary); err != nil {
		t.Fatalf("parsing anor-trace output: %v\n%s", err, traceOut)
	}
	if summary.CompleteChains < 1 {
		t.Errorf("anor-trace reconstructed %d complete chains, want ≥ 1\n%s", summary.CompleteChains, traceOut)
	}
	if summary.OrphanSpans != 0 {
		t.Errorf("anor-trace found %d orphaned spans, want 0\n%s", summary.OrphanSpans, traceOut)
	}
	if summary.CompleteChains >= 1 && summary.LatencyP50 <= 0 {
		t.Errorf("decision→enforcement p50 = %v, want > 0\n%s", summary.LatencyP50, traceOut)
	}
}

// scrapeAdminEndpoint polls anord's -metrics endpoint until the live
// run is visible in the exported families, then checks /healthz and
// pprof.
func scrapeAdminEndpoint(t *testing.T, addr string) {
	t.Helper()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	want := []string{
		"anord_rebudget_total",
		"anord_connected_endpoints 2",
		"anord_power_target_watts 800",
		"anord_power_measured_watts",
		"anord_tracking_error_watts",
		"anord_rebudget_duration_seconds_bucket",
		`anord_job_allocated_watts{job="j1"}`,
		`anord_job_allocated_watts{job="j2"}`,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get("/metrics")
		missing := ""
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("metrics never showed %q; last scrape:\n%s", missing, body)
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || !strings.Contains(body, "anord") {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func waitForListener(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("anord never listened on %s", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
