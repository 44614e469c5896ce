package repro_test

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds and executes every example program, checking
// each prints its expected headline. The examples are the quickstart
// documentation; this keeps them from rotting.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example execution in -short mode")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "GEOPM Report: quickstart-job"},
		{"misclassification", "recovered"},
		{"variation", "track-ok"},
		{"demandresponse", "per-type mean slowdown"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			var out bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+c.dir)
			cmd.Stdout = &out
			cmd.Stderr = &out
			done := make(chan error, 1)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("example failed: %v\n%s", err, out.String())
				}
			case <-time.After(4 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("example timed out\n%s", out.String())
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, out.String())
			}
		})
	}
}
