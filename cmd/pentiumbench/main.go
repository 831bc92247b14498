// Command pentiumbench reproduces the tables and figures of Lai & Baker,
// "A Performance Comparison of UNIX Operating Systems on the Pentium"
// (USENIX 1996) on the simulated platform.
//
// Usage:
//
//	pentiumbench list                 # show all experiments
//	pentiumbench run all              # run everything, render to stdout
//	pentiumbench run T2 F1 F12        # run selected exhibits
//	pentiumbench run F13 -format=csv  # emit CSV for external plotting
//	pentiumbench run all -format=svg -out figures  # write SVG figures
//	pentiumbench run S1 -format=table # the model table behind S1/S2
//	pentiumbench check                # evaluate every paper claim
//	pentiumbench sensitivity          # claims under perturbed calibration
//	pentiumbench replay mailspool     # time a workload trace per system
//	pentiumbench latency              # lmbench-style probes
//	pentiumbench trace                # annotated kernel timeline (-procs N)
//	pentiumbench trace F1 -format=chrome > f1.json   # Perfetto-loadable trace
//	pentiumbench metrics F1 F12       # per-phase cycle-attribution tables
//	pentiumbench experiments          # regenerate EXPERIMENTS.md
//	pentiumbench notes                # §11 qualitative findings
//	pentiumbench platform             # the modelled hardware (Table 1)
//
// Flags:
//
//	-seed N      master seed (default 1; EXPERIMENTS.md uses 1)
//	-runs N      repetitions per benchmark (default 20, as in the paper)
//	-future      additionally benchmark the §13 "future work" systems
//	-out DIR     run -format=svg output directory
//	-eps F       sensitivity perturbation (default 0.15)
//	-trials N    sensitivity replicas (default 5)
//	-j N         worker pool size for run/experiments/html/trace/metrics
//	             (default GOMAXPROCS; -j 1 is strictly serial; at most
//	             1024; output is bit-identical at every N)
//	-procs N     trace: token-ring size (default 3); metrics/trace <ids>:
//	             F1 probe process count (default 8)
//	-format F    run <ids>: text (default), csv, svg or table;
//	             trace <ids>: chrome (default, Perfetto JSON) or text
//	-stats       print runner statistics (jobs, memo hits, wall time,
//	             slowest experiments) to stderr after running
//	-cpuprofile F  write a pprof CPU profile of the command to F
//	-memprofile F  write a pprof heap profile (post-GC, at exit) to F
//
// All logic lives in internal/cli; this is a shim.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.NewApp(os.Stdout, os.Stderr).Execute(os.Args[1:]))
}
