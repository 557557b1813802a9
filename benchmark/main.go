// Command benchmark is the repository's measuring stick: seven workloads
// over the public engine API, eleven end-to-end metrics, and per-layer
// numbers taken from outside the engine — by decorators at its public seams
// and by timed direct calls into each layer's exported functions. See
// README.md in this directory.
//
//	go run ./benchmark -seed 1                    every workload, then the traced pass
//	go run ./benchmark -seed 1 -workload tier_warm
//	go run ./benchmark -compare A.json B.json
//
// With -workload and -trace it runs one workload in one mode and prints a
// single JSON line, the form BENCHMARK.json's command is driven in.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// watchdog is how long any invocation may run before it is declared hung.
const watchdog = 170 * time.Second

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "workload seed: feeds every SynthSpec.Seed and Options.Seed")
		name     = flag.String("workload", "", "run only this workload")
		seconds  = flag.Float64("seconds", 15, "how long each workload's untraced reps measure")
		trace    = flag.Int("trace", -1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		out      = flag.String("out", "", "result file to write (default benchmark/out/result-seed<seed>.json)")
		spansOut = flag.String("spans", "benchmark/out/spans.jsonl", "where the traced pass writes its spans")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{seed: *seed, clients: clientCount()}
	if *trace >= 0 {
		spec := workloadByName(*name)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: -trace needs -workload, one of %v\n", workloadNames())
			os.Exit(2)
		}
		time.AfterFunc(watchdog, func() {
			fmt.Fprintln(os.Stderr, "benchmark: timed out")
			os.Exit(3)
		})
		os.Exit(driverRun(cfg, spec, *seconds, *trace == 1, *spansOut))
	}
	os.Exit(fullRun(cfg, *name, *seconds, *out, *spansOut))
}

// clientCount is C = min(nproc, 4).
func clientCount() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
