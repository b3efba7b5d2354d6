// Command cqpbench regenerates the paper's evaluation (Section 7): every
// figure and table, printed as aligned text tables and optionally as CSV
// files for plotting.
//
// Usage:
//
//	cqpbench                         # all experiments, laptop scale
//	cqpbench -exp fig12a             # one experiment
//	cqpbench -profiles 20 -queries 10 -budget 0   # the paper's full scale
//	cqpbench -csv out/               # also write CSV series
//	cqpbench -json summary.json      # machine-readable per-experiment rollup
//	cqpbench -metrics                # dump the run's metrics at the end
//	cqpbench -http :8080             # serve /metrics, /debug/vars, /debug/pprof
//	cqpbench -faults 'exec.union:lat:0.1:20ms'   # run the figures under injected faults
//
// Serving, batching, spilling and cluster behaviour are not measured here:
// the repository benchmark (BENCHMARK.json, benchmark/) and the tier-1 tests
// own those questions.
package main

import (
	"context"
	"errors"
	_ "expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cqp/internal/bench"
	"cqp/internal/fault"
	"cqp/internal/obs"
	"cqp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cqpbench:", err)
		os.Exit(1)
	}
}

// run is main without the process: it parses args, runs the selected
// experiments and writes tables to stdout; flag errors and usage go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cqpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment id ("+strings.Join(bench.ExperimentIDs(), ", ")+" or all)")
		profiles  = fs.Int("profiles", 4, "profiles per data point (paper: 20)")
		queries   = fs.Int("queries", 5, "queries per data point (paper: 10)")
		ks        = fs.String("ks", "10,20,30,40", "comma-separated K sweep")
		cmaxMS    = fs.Float64("cmax", 400, "default cmax in ms (paper: 400)")
		defK      = fs.Int("k", 20, "default K (paper: 20)")
		budget    = fs.Int("budget", 1<<20, "per-run state budget; 0 = unlimited (paper-faithful, slow)")
		movies    = fs.Int("movies", 4000, "movies in the synthetic database")
		seed      = fs.Int64("seed", 1, "workload seed")
		csvDir    = fs.String("csv", "", "directory to also write CSV series into")
		jsonPath  = fs.String("json", "", "file to write a machine-readable per-experiment summary into")
		metrics   = fs.Bool("metrics", false, "dump the run's metrics registry after the experiments")
		httpAddr  = fs.String("http", "", "serve /metrics (Prometheus), /debug/vars and /debug/pprof on this address while running")
		faults    = fs.String("faults", os.Getenv("FAULTS"), "fault-injection plan, e.g. 'storage.scan:err:0.05' (also via FAULTS env)")
		faultSeed = fs.Int64("faultseed", 1, "seed for the fault plan's injection decisions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; usage: cqpbench [flags], every setting is a -flag (cqpbench -h lists them)", fs.Arg(0))
	}

	if *faults != "" {
		plan, err := fault.Parse(*faults, *faultSeed)
		if err != nil {
			return err
		}
		fault.Arm(plan)
		defer func() { fmt.Fprintf(stdout, "\nfault report:\n%s", plan.Report()) }()
		fmt.Fprintf(stdout, "fault plan armed: %s (seed %d)\n", plan, *faultSeed)
	}

	ksList, err := parseInts(*ks)
	if err != nil {
		return err
	}
	cfg := bench.Config{
		DB:            workload.DBConfig{Movies: *movies},
		Profiles:      *profiles,
		Queries:       *queries,
		Ks:            ksList,
		DefaultK:      *defK,
		DefaultCmaxMS: *cmaxMS,
		StateBudget:   *budget,
		Seed:          *seed,
	}
	if *budget == 0 {
		cfg.StateBudget = -1 // explicit "unlimited" (Config treats 0 as default)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	var srv *http.Server
	if *httpAddr != "" {
		srv = serveHTTP(*httpAddr, reg, stdout, stderr)
	}
	r := bench.NewRunner(cfg)
	fmt.Fprintf(stdout, "workload: %d movies, %d profiles × %d queries = %d runs/point, state budget %s\n\n",
		*movies, *profiles, *queries, r.Pairs(), budgetStr(cfg.StateBudget))

	var tables []*bench.Table
	if *exp == "all" {
		tables, err = r.All()
	} else {
		var t *bench.Table
		t, err = r.ByID(*exp)
		tables = []*bench.Table{t}
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t.Render())
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, t := range tables {
			path := filepath.Join(*csvDir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		err = r.Summary(tables).WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *metrics {
		fmt.Fprintln(stdout, "== metrics ==")
		fmt.Fprint(stdout, reg.Render())
	}
	if srv != nil {
		fmt.Fprintf(stdout, "experiments done; still serving on %s (ctrl-C to exit)\n", *httpAddr)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return nil
}

// serveHTTP exposes the registry and the stdlib debug handlers: /metrics in
// the Prometheus text format, plus /debug/vars and /debug/pprof, which the
// expvar and net/http/pprof imports register on the default mux themselves
// (the registry joins /debug/vars under "cqp"). The returned server carries
// a header-read timeout and supports context-based Shutdown — a bare
// ListenAndServe would let a silent client pin a connection forever and
// gives no drain path.
func serveHTTP(addr string, reg *obs.Registry, stdout, stderr io.Writer) *http.Server {
	reg.PublishExpvar("cqp")
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{
		Addr:              addr,
		Handler:           http.DefaultServeMux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "cqpbench: http:", err)
		}
	}()
	fmt.Fprintf(stdout, "serving /metrics, /debug/vars, /debug/pprof on %s\n", addr)
	return srv
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ks element %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func budgetStr(b int) string {
	if b <= 0 {
		return "unlimited"
	}
	return strconv.Itoa(b)
}
