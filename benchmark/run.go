package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cqp/internal/wal"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 1 except in the smoke test
	workDir  string  // scratch root inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics in print order with their remarks.
type report struct {
	result
	order   []string
	remarks map[string]string
	notes   []string
}

func newReport() *report {
	return &report{result: result{Metrics: map[string]metric{}}, remarks: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, remark string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{v, unit}
	if remark != "" {
		r.remarks[name] = remark
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds a verdict into the run's tally: a wrong answer is a failed
// operation.
func (r *report) count(what string, v verdict) {
	r.Failed += v.wrong
	if v.wrong > 0 {
		r.notef("%s: %d of %d wrong, first: %s", what, v.wrong, v.checked, v.firstErr)
	} else if v.checked > 0 {
		r.notef("%s: %d checked, all right", what, v.checked)
	}
}

// print writes every metric by name and unit, the remarks, and the result
// document as the last line.
func (r *report) print(w io.Writer, cfg runConfig) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v (GOMAXPROCS %d, %s, %d CPUs)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version(), runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-40s %16.6g %-6s", name, m.Value, m.Unit)
		if rem := r.remarks[name]; rem != "" {
			line += "  " + rem
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	doc, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", doc)
	return err
}

// run executes one workload: set-up, warm-up, the timed window (or, with
// tracing, the per-layer passes), the checks and teardown.
func run(cfg runConfig) (*report, error) {
	s := specByName(cfg.workload)
	if s == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()

	// Set-up runs several times so setup_s is a median; the last one serves.
	// A traced run reports no end-to-end metric and sets up once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(s, cfg.seed, cfg.scale, cfg.workDir, cfg.trace); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	chk := newChecker(e)
	warmStart := time.Now()
	warm := e.drive(e.warm, 0, false)
	if n, first := warm.failed(); n > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed, first: %s", n, warm.ops, first)
	}
	rep.Attempted += warm.ops // sent and checked, only not timed
	var warmAcks verdict
	chk.acks(warm, &warmAcks)
	rep.count("warm-up acks", warmAcks)
	rep.notef("warm-up: %d requests in %.2f s", warm.ops, time.Since(warmStart).Seconds())

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if err := e.tracedRun(cfg, chk, rep, d); err != nil {
			return nil, err
		}
	} else {
		e.timedRun(chk, rep, d, setups)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// timedRun is the untraced measurement every end-to-end metric comes from.
func (e *env) timedRun(chk *checker, rep *report, d time.Duration, setups []float64) {
	runtime.GC()
	w := e.drive(e.streams, d, false)
	e.tally(w, chk, rep)

	ops := float64(w.ops)
	lat := w.latenciesMS()
	rep.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups %.3v", len(setups), setups))
	rep.set("throughput_rps", "1/s", ops/w.wall.Seconds(), fmt.Sprintf("%d ops in %.2f s, %d closed-loop clients", w.ops, w.wall.Seconds(), clients))
	p50, _, err := percentile(lat, 50)
	if err != nil { // only below full scale
		rep.notef("latency_p50_ms not reported: %v", err)
	}
	rep.set("latency_p50_ms", "ms", p50, "send to last byte read, all endpoints together")
	if p99, beyond, err := percentile(lat, 99); err != nil {
		rep.notef("latency_p99_ms not reported: %v", err)
	} else {
		rep.notef("latency_p99_ms %.6g ms (n=%d, %d samples beyond; a per-layer row, not bounded)", p99, len(lat), beyond)
	}
	rep.set("cpu_ms_per_op", "ms", float64(w.used.cpu)/float64(time.Millisecond)/ops, "process user+sys, client included")
	rep.set("alloc_kb_per_op", "KiB", float64(w.used.bytes)/1024/ops, "whole process, client included")
	rep.set("allocs_per_op", "count", float64(w.used.mallocs)/ops, "whole process, client included")
	rep.set("peak_rss_mb", "MiB", peakRSSMiB(), "VmHWM at exit, all set-ups included")
	rep.notef("fail_ratio %g (%d of %d operations; the result document carries it as failed over attempted)",
		ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
}

// tally counts a window's operations and failures into the report and
// checks its sample.
func (e *env) tally(w *window, chk *checker, rep *report) {
	rep.Attempted += w.ops
	n, first := w.failed()
	rep.Failed += n
	if n > 0 {
		rep.notef("%d of %d requests failed, first: %s", n, w.ops, first)
	}
	for c := range w.logs {
		if w.logs[c].exhausted {
			rep.notef("client %d ran out of stream before the deadline", c)
		}
	}
	start := time.Now()
	rep.count("sampled answers", chk.verify(w))
	if e.spec.durable {
		back := chk.verifyStored(w)
		rep.Attempted += back.checked // each a GET of its own
		rep.count("profiles read back", back)
	}
	rep.notef("checks took %.2f s", time.Since(start).Seconds())
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts turns a window's counter deltas into the per-layer count metrics.
// fail_ratio is the exception: it is the run's, over every pass tallied so
// far, so its numerator and denominator count the same operations.
func (e *env) counts(w *window, rep *report) {
	st := func(name string) float64 { return float64(w.stats[name]) }
	ops := float64(w.ops)
	rep.set("fail_ratio", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)),
		fmt.Sprintf("non-2xx, transport error or wrong answer: %d of the %d operations of all passes", rep.Failed, rep.Attempted))
	rep.set("cache.hit_ratio", "ratio", ratio(st("server_cache_hits"), st("server_cache_hits")+st("server_cache_misses")), "")
	rep.set("cache.evictions_per_op", "count", ratio(st("server_cache_evictions_total"), ops), "")
	rep.set("coalesce.follower_ratio", "ratio", ratio(st("coalesce_followers_total"), st("coalesce_followers_total")+st("coalesce_leaders_total")), "")
	rep.set("estimate.memo_hit_ratio", "ratio", ratio(st("estimate_memo_hits_total"), st("estimate_memo_hits_total")+st("estimate_memo_misses_total")), "")
	rep.set("search.states_per_op", "count", ratio(st("search_states_visited_total"), ops), "")
	rep.set("exec.block_reads_per_op", "count", ratio(st("exec_block_reads_total"), ops), "")
	rep.set("exec.rows_per_op", "count", ratio(st("exec_rows_returned_total"), ops), "")

	// Bytes the store wrote per acked PUT: each record's log frame plus the
	// checkpoints taken meanwhile, every one a rewrite of all live profiles.
	var puts, logged float64
	for c := range w.logs {
		for _, r := range w.logs[c].puts {
			puts++
			logged += float64(wal.FrameOverhead + len(profileID(int(r.op.profile))) + len(e.texts[r.op.profile].text(r.op.arg)))
		}
	}
	var snapshot float64
	if files, _ := filepath.Glob(filepath.Join(e.dir, "wal", "snap-*.snap")); len(files) > 0 {
		if fi, err := os.Stat(files[len(files)-1]); err == nil {
			snapshot = float64(fi.Size())
		}
	}
	rep.set("wal.bytes_per_put", "B", ratio(logged+st("wal_snapshots_total")*snapshot, puts),
		fmt.Sprintf("%.0f PUTs, %.0f checkpoints of %.0f bytes", puts, st("wal_snapshots_total"), snapshot))
	rep.set("server.shed_total", "count", st("server_shed_total"), "")
	rep.set("server.degraded_total", "count", st("server_degraded_total"), "")
	lat := w.latenciesMS()
	for _, p := range []struct {
		name string
		p    float64
	}{{"latency_p99_ms", 99}, {"latency_p999_ms", 99.9}} {
		v, beyond, err := percentile(lat, p.p)
		remark := fmt.Sprintf("n=%d, %d samples beyond", len(lat), beyond)
		if err != nil {
			remark = "not reported: " + err.Error()
		}
		rep.set(p.name, "ms", v, remark)
	}
}
