// Command benchmark is the repository's benchmark: four closed-loop cqpd
// workloads measured end to end, and a traced run that measures every layer
// from outside. See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	// Full size, scratch under the directory the build already writes to:
	// constants, so that no number a run prints depends on an unlisted flag.
	cfg := runConfig{scale: 1, workDir: ".bench_build"}
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: personalize_cold, execute_cold, serve_hot or profile_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the database, profiles, queries and request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: per-layer run with spans and micro rows; 0: end-to-end run")
	flag.IntVar(&repeat, "repeat", 0, "run this many full sets (every workload ten times, each with another seed, plus a traced run) and print medians, quartiles, spread and bound")
	flag.Parse()
	cfg.trace = trace != 0

	if repeat > 0 {
		if err := runRepeat(cfg, repeat, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
