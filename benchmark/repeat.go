package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the repeat mode reads: the bounds.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summary is one end-to-end metric on one workload over one set of runs.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
}

// baseline is what --repeat prints last and benchmark/baseline.json holds.
type baseline struct {
	Runs    int                `json:"runs_per_workload_per_set"`
	Seconds float64            `json:"seconds"`
	Seeds   []int64            `json:"seeds"`
	Bounds  map[string]float64 `json:"bounds"`
	// Sets[i][workload][metric]
	Sets []map[string]map[string]summary `json:"sets"`
	// Worsening[workload][metric] is how much worse the last set's median
	// is than the first's, as a share of the first's; negative is better.
	Worsening map[string]map[string]float64 `json:"worsening"`
	// States[i][workload][algorithm] is core.search.<A>.k20.states_op from
	// the set's traced run: an exact count that must repeat.
	States   []map[string]map[string]float64 `json:"search_states_k20"`
	Accepted bool                            `json:"accepted"`
}

// runsPerSet is how many runs of a workload, each with another seed, make
// one set: the number the driver's acceptance check takes quartiles over.
const runsPerSet = 10

// runRepeat reproduces the driver's acceptance check: per set, every
// workload runs runsPerSet times as a fresh process, each with another
// seed, plus one traced run; it prints median, quartiles and spread of every
// end-to-end metric beside its bound, and compares the first and last sets'
// medians.
func runRepeat(cfg runConfig, sets int, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("--repeat runs from the root of the checkout: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	b := baseline{Runs: runsPerSet, Seconds: cfg.seconds, Bounds: map[string]float64{}, Worsening: map[string]map[string]float64{}, Accepted: true}
	lower := map[string]bool{}
	for _, m := range man.EndToEnd {
		b.Bounds[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	for i := 0; i < runsPerSet; i++ {
		b.Seeds = append(b.Seeds, cfg.seed+int64(i))
	}
	child := func(workload string, seed int64, trace int) (*result, error) {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
		}
		return &res, nil
	}
	for s := 0; s < sets; s++ {
		set := map[string]map[string]summary{}
		states := map[string]map[string]float64{}
		for _, w := range specs {
			values := map[string][]float64{}
			for _, seed := range b.Seeds {
				res, err := child(w.name, seed, 0)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[name] = append(values[name], m.Value)
				}
				fmt.Fprintf(out, "set %d %s seed %d done\n", s+1, w.name, seed)
			}
			set[w.name] = map[string]summary{}
			for _, m := range endToEnd {
				q1, _, q3 := quartiles(values[m.name])
				set[w.name][m.name] = summary{values[m.name], median(values[m.name]), q1, q3, spread(values[m.name])}
			}
			traced, err := child(w.name, cfg.seed, 1)
			if err != nil {
				return err
			}
			states[w.name] = map[string]float64{}
			for _, a := range searchAlgorithms {
				states[w.name][a] = traced.Metrics["core.search."+a+".k20.states_op"].Value
			}
		}
		b.Sets = append(b.Sets, set)
		b.States = append(b.States, states)
	}

	fmt.Fprintf(out, "\n%-17s %-16s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for s, set := range b.Sets {
		for _, w := range specs {
			for _, m := range endToEnd {
				sm := set[w.name][m.name]
				flag := ""
				if m.name != "setup_s" && sm.Spread > b.Bounds[m.name] {
					flag, b.Accepted = "SPREAD OVER BOUND", false
				} else if m.name != "setup_s" && sm.Spread > b.Bounds[m.name]/3 {
					flag = "spread over a third of the bound"
				}
				fmt.Fprintf(out, "%-17s %-16s %12.5g %12.5g %12.5g %7.2f%% %7.2f%%  set %d %s\n",
					w.name, m.name, sm.Median, sm.Q1, sm.Q3, 100*sm.Spread, 100*b.Bounds[m.name], s+1, flag)
			}
		}
	}
	first, last := b.Sets[0], b.Sets[len(b.Sets)-1]
	for _, w := range specs {
		b.Worsening[w.name] = map[string]float64{}
		for _, m := range endToEnd {
			worse := ratio(last[w.name][m.name].Median-first[w.name][m.name].Median, first[w.name][m.name].Median)
			if !lower[m.name] {
				worse = -worse
			}
			b.Worsening[w.name][m.name] = worse
			if worse > b.Bounds[m.name] {
				b.Accepted = false
				fmt.Fprintf(out, "%s %s: last set's median is %.2f%% worse than the first's, bound %.2f%%\n",
					w.name, m.name, 100*worse, 100*b.Bounds[m.name])
			}
		}
		for _, a := range searchAlgorithms {
			if b.States[0][w.name][a] != b.States[len(b.States)-1][w.name][a] {
				b.Accepted = false
				fmt.Fprintf(out, "%s core.search.%s.k20.states_op did not repeat\n", w.name, a)
			}
		}
	}
	doc, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", doc)
	return err
}
