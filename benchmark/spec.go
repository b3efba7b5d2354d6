package main

// The constants every workload shares. Two closed-loop clients because the
// sandbox has two cores and callers of cqpd are applications that wait for
// the reply; a 1-in-64 seeded sample of responses is decoded and checked
// outside the latency timer; set-up runs five times per process so setup_s
// is a median.
const (
	clients      = 2
	sampleEvery  = 64
	setupRepeats = 5
	executeLimit = 20 // rows returned per /execute answer
	topkAnswers  = 10
	frontPoints  = 8
	batchItems   = 8
	nonBinding   = 1e9 // cmax_ms no personalized query reaches
)

// spec sizes one workload at scale 1. Op counts are per client and bound the
// timed stream from above: the window ends at --seconds or when a client's
// stream runs out, whichever comes first.
type spec struct {
	name     string
	why      string
	movies   int
	profiles int
	queries  int
	durable  bool // profile store on a write-ahead log under the scratch dir
	ops      int  // timed stream length per client
	warmup   int  // untimed ops per client sent before the window
	generate func(g *generator)
}

var specs = []*spec{
	{
		name:     "personalize_cold",
		why:      "distinct (profile, query, bound) per request at K=20 with binding bounds: the state-space search is nearly all the work, exec and the result cache do none",
		movies:   2000,
		profiles: 2000,
		queries:  16,
		ops:      2400,
		warmup:   24,
		generate: (*generator).personalizeCold,
	},
	{
		name:     "execute_cold",
		why:      "distinct /execute and /topk requests at K=10 over 6000 movies: executor, iterators and storage do most of the work and the search almost none",
		movies:   6000,
		profiles: 2000,
		queries:  16,
		ops:      2400,
		warmup:   24,
		generate: (*generator).executeCold,
	},
	{
		name:     "serve_hot",
		why:      "480 cache keys (half the 1024-entry result cache) requested again and again: decode, cache lookup, encode and net/http are the whole cost",
		movies:   2000,
		profiles: 32,
		queries:  8,
		ops:      800000,
		warmup:   0, // warmed by one pass over every key instead
		generate: (*generator).serveHot,
	},
	{
		name:     "profile_churn",
		why:      "Zipf reads over 16000 keys beside 15% profile PUTs on a durable store: hits, misses, evictions, invalidation, profile parsing and the WAL all carry load",
		movies:   2000,
		profiles: 2000,
		queries:  8,
		durable:  true,
		ops:      300000,
		warmup:   4000,
		generate: (*generator).profileChurn,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists what a caller of cqpd sees, measured with tracing off.
// Two metrics the design had here are per-layer rows instead. fail_ratio is
// 0 at the seed state and the driver's contract wants end-to-end metrics
// that are never 0; every run still reports failed over attempted.
// latency_p99_ms could not be brought inside a bound on this host (spread up
// to 20%, medians of two sets 26% apart on serve_hot, where it is scheduler
// and collector jitter); every untraced run still prints it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
}

var phaseNames = []string{
	"parse", "profile", "prefspace", "search", "construct", "execute",
	"encode", "shell", "http", "profile_put",
}

var reconciled = []string{"personalize", "execute", "topk"}

var countMetrics = []metricDef{
	{"fail_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_op", "count"},
	{"coalesce.follower_ratio", "ratio"},
	{"estimate.memo_hit_ratio", "ratio"},
	{"search.states_per_op", "count"},
	{"exec.block_reads_per_op", "count"},
	{"exec.rows_per_op", "count"},
	{"wal.bytes_per_put", "B"},
	{"server.shed_total", "count"},
	{"server.degraded_total", "count"},
	{"latency_p99_ms", "ms"},
	{"latency_p999_ms", "ms"},
}

var searchAlgorithms = []string{"D_MaxDoi", "D_SingleMaxDoi", "C_Boundaries", "C_MaxBounds", "D_HeurDoi"}

// microRow is one fixed-iteration micro measurement of a single layer.
// measures lists the suffixes it reports beside ns_op.
type microRow struct {
	name     string
	measures []string
}

func microRows() []microRow {
	timeAllocs := []string{"ns_op", "allocs_op"}
	withBytes := []string{"ns_op", "allocs_op", "b_op"}
	withReads := []string{"ns_op", "allocs_op", "b_op", "block_reads_op"}
	rows := []microRow{
		{"sqlparse.parse", timeAllocs},
		{"prefs.parse_profile", timeAllocs},
		{"prefspace.build.k20.memo_warm", timeAllocs},
		{"prefspace.build.k20.memo_cold", timeAllocs},
	}
	for _, a := range searchAlgorithms {
		rows = append(rows,
			microRow{"core.search." + a + ".k20", []string{"ns_op", "allocs_op", "states_op"}},
			microRow{"core.search." + a + ".k40", timeAllocs})
	}
	for _, p := range []string{"p1", "p3", "p4", "p5", "p6"} {
		rows = append(rows, microRow{"core.solve." + p + ".k20", timeAllocs})
	}
	rows = append(rows, microRow{"rewrite.construct.k20", timeAllocs})
	for _, c := range []string{"union.mem.k10", "union.disk.k10", "union.spill.k10", "topk.mem.k10", "batch16.shared", "batch16.private"} {
		rows = append(rows, microRow{"exec." + c, withReads})
	}
	for _, c := range []string{"personalize.hit", "personalize.miss", "execute.hit", "execute.miss", "batch8.hit", "profile_put.mem", "profile_put.wal", "profile_get"} {
		rows = append(rows, microRow{"server." + c, withBytes})
	}
	rows = append(rows,
		microRow{"http.roundtrip.hit", []string{"ns_op"}},
		microRow{"cluster.proxy_hop", []string{"ns_op"}})
	return rows
}

// perLayer lists every metric a --trace 1 run prints, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, p := range phaseNames {
		out = append(out, metricDef{"phase." + p + ".share", "ratio"})
	}
	for _, r := range reconciled {
		out = append(out, metricDef{"reconcile." + r + ".coverage", "ratio"})
	}
	out = append(out, metricDef{"trace.overhead_ratio", "ratio"})
	out = append(out, countMetrics...)
	for _, row := range microRows() {
		for _, m := range row.measures {
			out = append(out, metricDef{row.name + "." + m, microUnit(m)})
		}
	}
	return out
}

func microUnit(measure string) string {
	switch measure {
	case "ns_op":
		return "ns"
	case "b_op":
		return "B"
	}
	return "count"
}
