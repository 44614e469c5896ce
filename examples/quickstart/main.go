// Quickstart: stand up an emulated ANOR cluster, run one instrumented job
// under a static cluster power budget, and print its GEOPM report.
//
// This exercises the whole stack end to end — simulated RAPL registers,
// per-node GEOPM agents, the job-tier power modeler, the wire protocol,
// and the cluster-tier budgeter — on a virtual clock, so the "two-minute"
// job finishes in well under a second of wall time.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	v := clock.NewVirtual(start)

	// A 4-node cluster asked to hold 600 W total: with two nodes idle at
	// 70 W each, the job's two nodes share 460 W — a mild cap.
	cluster, err := core.NewCluster(core.Config{
		Nodes:    4,
		Clock:    v,
		Budgeter: budget.EvenSlowdown{},
		Target:   func(time.Time) units.Power { return 600 },
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	typ := workload.MustByName("mg") // 120 s uncapped, 1 node — use 2 below
	var res core.JobResult
	core.Drive(v, func() {
		res, err = cluster.RunJob(context.Background(), core.JobSpec{
			ID:    "quickstart-job",
			Type:  typ,
			Nodes: 2,
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.Report)
	fmt.Printf("\nslowdown vs uncapped: %.1f%% (type's max at minimum cap: %.0f%%)\n",
		100*(res.Slowdown-1), 100*(typ.MaxSlowdown-1))
	fmt.Printf("virtual time elapsed: %s\n", v.Now().Sub(start).Round(time.Second))

	pts := cluster.Tracking()
	if len(pts) > 0 {
		last := pts[len(pts)-1]
		fmt.Printf("cluster tracking: target %s, measured %s at shutdown\n", last.Target, last.Measured)
	}
}
