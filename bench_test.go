package cqp

// Benchmarks: one testing.B entry per table/figure of the paper's
// evaluation, so `go test -bench=.` regenerates the performance side of
// Section 7 (the cqpbench command prints the full row/series form).
//
// Sub-benchmarks name the paper's series: algorithms × K for Figure 12(a),
// extraction modes for 12(b), cmax percentages for 12(c,d). Memory
// (Figure 13) and quality (Figure 14) are emitted as custom metrics
// (peak-KB, gap-e7) alongside the timings. Figure 15's estimated and real
// costs are reported as est-ms / real-ms metrics.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cqp/internal/core"
	"cqp/internal/exec"
	"cqp/internal/prefspace"
	"cqp/internal/rewrite"
	"cqp/internal/workload"
)

// benchBudget caps search states per run so `go test -bench=.` stays in a
// laptop envelope even at K = 40 (the paper's slow algorithms run for
// hundreds of seconds there by design).
const benchBudget = 200_000

var (
	benchOnce sync.Once
	benchEnv  *workload.Env
	benchProf *Profile
	benchQ    *Query
	benchIns  map[int]*core.Instance
	benchSps  map[int]*prefspace.Space
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = workload.NewEnv(workload.DBConfig{Movies: 2000, Seed: 9}, 1)
		benchProf = workload.GenerateProfile(workload.ProfileConfig{Seed: 10})
		benchQ = workload.Queries(1, 11)[0]
		benchIns = make(map[int]*core.Instance)
		benchSps = make(map[int]*prefspace.Space)
		for _, k := range []int{10, 20, 30, 40} {
			sp, err := prefspace.Build(benchQ, benchProf, benchEnv.Est, prefspace.Options{MaxK: k})
			if err != nil {
				panic(err)
			}
			in := core.FromSpace(sp)
			in.StateBudget = benchBudget
			benchSps[k] = sp
			benchIns[k] = in
		}
	})
}

// BenchmarkFig12aOptimizationTime regenerates Figure 12(a): optimization
// time per algorithm as K grows (cmax = 400 ms).
func BenchmarkFig12aOptimizationTime(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{10, 20, 40} {
		for _, a := range core.Algorithms {
			b.Run(fmt.Sprintf("%s/K=%d", a.Name, k), func(b *testing.B) {
				in := benchIns[k]
				cmax := in.SupremeCost() * 0.4 // keep the bound binding at every K
				for i := 0; i < b.N; i++ {
					a.Solve(in, cmax)
				}
			})
		}
	}
}

// BenchmarkFig12bPreferenceSpace regenerates Figure 12(b): preference
// extraction alone (D_PrefSelTime: P in doi order) vs extraction plus the C
// vector core derives (C_PrefSelTime). benchSetup's builds have
// warmed the estimator's memo, so both time the memo-warm extraction.
func BenchmarkFig12bPreferenceSpace(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{10, 20, 40} {
		opt := prefspace.Options{MaxK: k}
		b.Run(fmt.Sprintf("D_PrefSelTime/K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prefspace.Build(benchQ, benchProf, benchEnv.Est, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("C_PrefSelTime/K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp, err := prefspace.Build(benchQ, benchProf, benchEnv.Est, opt)
				if err != nil {
					b.Fatal(err)
				}
				core.FromSpace(sp).CostOrder()
			}
		})
	}
}

// BenchmarkFig12cCmaxSweep regenerates Figures 12(c,d): optimization time
// as cmax sweeps the Supreme-Cost percentage scale at K = 20.
func BenchmarkFig12cCmaxSweep(b *testing.B) {
	benchSetup(b)
	in := benchIns[20]
	for _, pct := range []int{10, 50, 100} {
		cmax := in.SupremeCost() * float64(pct) / 100
		for _, a := range core.Algorithms {
			b.Run(fmt.Sprintf("%s/pct=%d", a.Name, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Solve(in, cmax)
				}
			})
		}
	}
}

// BenchmarkFig13Memory regenerates Figure 13: the peak-KB metric per
// algorithm at the default setting (K = 20, cmax = 400 ms).
func BenchmarkFig13Memory(b *testing.B) {
	benchSetup(b)
	in := benchIns[20]
	cmax := in.SupremeCost() * 0.4
	for _, a := range core.Algorithms {
		b.Run(a.Name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				sol := a.Solve(in, cmax)
				peak = sol.Stats.PeakMemBytes
			}
			b.ReportMetric(float64(peak)/1024, "peak-KB")
		})
	}
}

// BenchmarkFig14Quality regenerates Figure 14: the heuristics' doi gap
// (×1e7) against the best answer found, at the default setting.
func BenchmarkFig14Quality(b *testing.B) {
	benchSetup(b)
	in := benchIns[20]
	cmax := in.SupremeCost() * 0.4
	ref := 0.0
	for _, a := range core.Algorithms {
		if sol := a.Solve(in, cmax); sol.Doi > ref {
			ref = sol.Doi
		}
	}
	for _, a := range core.Algorithms {
		if a.Exact {
			continue
		}
		b.Run(a.Name, func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				sol := a.Solve(in, cmax)
				gap = (ref - sol.Doi) * 1e7
			}
			b.ReportMetric(gap, "gap-e7")
		})
	}
}

// BenchmarkFig15CostPrediction regenerates Figure 15: executing the fully
// personalized query and reporting estimated vs real cost as metrics.
func BenchmarkFig15CostPrediction(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			sp := benchSps[k]
			pq := rewrite.Construct(sp.Query, sp.P, true)
			var est, real float64
			for i := 0; i < b.N; i++ {
				res, err := pq.Execute(benchEnv.DB)
				if err != nil {
					b.Fatal(err)
				}
				est = sp.SupremeCost()
				real = float64(exec.RealCost(res.BlockReads, res.Elapsed, time.Millisecond)) /
					float64(time.Millisecond)
			}
			b.ReportMetric(est, "est-ms")
			b.ReportMetric(real, "real-ms")
		})
	}
}

// BenchmarkTable1Problems solves each of the six CQP problems of Table 1 on
// the default instance.
func BenchmarkTable1Problems(b *testing.B) {
	benchSetup(b)
	in := benchIns[20]
	cmax := in.SupremeCost() * 0.4
	smin := 1.0
	smax := in.BaseSize / 2
	problems := []core.Problem{
		core.Problem1(smin, smax),
		core.Problem2(cmax),
		core.Problem3(cmax, smin, smax),
		core.Problem4(0.95),
		core.Problem5(0.95, smin, smax),
		core.Problem6(smin, smax),
	}
	for i, prob := range problems {
		prob := prob
		b.Run(fmt.Sprintf("problem%d", i+1), func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := core.Solve(in, prob, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndPersonalize measures the full public-API pipeline:
// extraction, search, rewriting (Problem 2 at the paper defaults).
func BenchmarkEndToEndPersonalize(b *testing.B) {
	db := SyntheticMovieDB(2000, 21)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(60, 22)
	q, err := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Personalize(q, profile, Problem2(400), WithStateBudget(benchBudget)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutor measures raw conjunctive evaluation on the store.
func BenchmarkExecutor(b *testing.B) {
	benchSetup(b)
	q := workload.Queries(3, 30)[2]
	for i := 0; i < b.N; i++ {
		if _, err := exec.Eval(benchEnv.DB, q); err != nil {
			b.Fatal(err)
		}
	}
}
