// Command anor-bench regenerates every table and figure of the paper's
// evaluation (§6) from the reproduction's own stack, printing the same
// rows and series the paper plots.
//
// Usage:
//
//	anor-bench fig3      # job-type power-performance curves
//	anor-bench fit       # §5.1 precharacterization R² table
//	anor-bench fig4      # budgeter comparison under shared budgets
//	anor-bench fig5      # misclassification cost analysis
//	anor-bench fig6      # BT+SP shared-cap hardware-emulation study
//	anor-bench fig7      # 2×BT misclassification study
//	anor-bench fig8      # 2×SP misclassification study
//	anor-bench fig9      # hour-long moving-target tracking
//	anor-bench fig10     # capping-technique comparison over the hour
//	anor-bench fig11     # 1000-node performance-variation study
//	anor-bench qos       # §5.2 queue-trace wait/exec statistic
//	anor-bench train     # AQA bid training (§4.4)
//	anor-bench ablate    # design-choice ablations (default policy, retrain threshold)
//	anor-bench hier      # §8 two-level (rack proxy) allocation fidelity
//	anor-bench energy    # per-job energy accounting report with conservation audit
//	anor-bench all       # everything above except energy
//
// Simulator throughput is measured by the bench/ module's sim-trace and
// sim-policy workloads, not here.
package main

import (
	"flag"
	"fmt"
	"os"
)

var (
	seed     = flag.Uint64("seed", 1, "experiment seed")
	quick    = flag.Bool("quick", false, "reduced trial counts and horizons for a fast pass")
	csvPath  = flag.String("csv", "", "write fig9's tracking series to this CSV file")
	parallel = flag.Int("parallel", 0, "concurrent trials per experiment (0 = GOMAXPROCS); results are identical at any setting")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: anor-bench [flags] {fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fit|qos|train|ablate|hier|energy|all}")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	runners := map[string]func(){
		"fig3": fig3, "fig4": fig4, "fig5": fig5,
		"fig6": fig6, "fig7": fig7, "fig8": fig8,
		"fig9": fig9, "fig10": fig10, "fig11": fig11,
		"fit": fit, "qos": qos, "train": train, "ablate": ablate, "hier": hierTable,
		"energy": energy,
	}
	if cmd == "all" {
		for _, name := range []string{"fig3", "fit", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "qos", "train", "ablate", "hier"} {
			fmt.Printf("\n════════ %s ════════\n", name)
			runners[name]()
		}
		return
	}
	run, ok := runners[cmd]
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	run()
}
