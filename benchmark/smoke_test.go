package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var doc benchmarkJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestManifestMatchesTheProgram pins BENCHMARK.json to the lists the
// program prints from: same workloads with the same reasons, same metrics
// with the same units, in the same order, within the contract's limits.
func TestManifestMatchesTheProgram(t *testing.T) {
	doc := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		use(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q, the program's is %q (or their reasons differ)", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range doc.EndToEnd {
		use(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %s [%s], the program's is %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	layers := perLayer()
	if len(doc.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics listed, the program has %d (cap 128)", len(doc.PerLayer), len(layers))
	}
	for i, m := range doc.PerLayer {
		use(m.Name)
		if m.Name != layers[i].name || m.Unit != layers[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %s [%s], the program's is %s [%s]", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// lastLine parses what a run prints as its result document.
func lastLine(t *testing.T, rep *report, cfg runConfig) result {
	t.Helper()
	var out bytes.Buffer
	if err := rep.print(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result document has keys %v", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	// Every metric is also printed by name with its unit above the document.
	for name, m := range res.Metrics {
		if !strings.Contains(out.String(), "  "+name+" ") || m.Unit == "" {
			t.Errorf("metric %s is not printed by name and unit", name)
		}
	}
	return res
}

// TestSmoke runs every workload at a hundredth of its size, untraced and
// traced, and requires a correct run that prints exactly the metrics
// BENCHMARK.json lists, and a trace whose spans all hang together.
func TestSmoke(t *testing.T) {
	wantE2E, wantLayers := metricNames(endToEnd), metricNames(perLayer())
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: s.name, seed: 21, seconds: 0.4, trace: trace, scale: 0.01, workDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			res := lastLine(t, rep, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", s.name, trace, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			got := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := wantE2E
			if trace {
				want = wantLayers
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: printed metrics differ from the listed ones:\n got  %v\n want %v", s.name, trace, got, want)
			}
			if trace {
				checkTrace(t, filepath.Join(cfg.workDir, "trace.jsonl"))
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.workDir, "run-*")); len(left) > 0 {
				t.Errorf("%s trace=%v: scratch directories left behind: %v", s.name, trace, left)
			}
		}
	}
}

// checkTrace requires every line of trace.jsonl to parse, every span to end
// after it starts, every parent to exist, and every child to share its
// parent's request.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[uint64]spanLine{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, dup := spans[s.ID]; dup || s.ID == 0 || s.EndNS < s.StartNS {
			t.Errorf("span %+v: duplicate or zero id, or ends before it starts", s)
		}
		spans[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Parent == 0 {
			if s.Name != "roundtrip" || s.Req != s.ID {
				t.Errorf("root span %+v is not a request's round trip", s)
			}
			continue
		}
		p, ok := spans[s.Parent]
		if !ok {
			t.Errorf("span %+v: parent does not exist", s)
		} else if p.Req != s.Req {
			t.Errorf("span %+v: parent belongs to request %d", s, p.Req)
		}
	}
	for _, n := range []string{"roundtrip", "handler", "parse", "encode"} {
		if names[n] == 0 {
			t.Errorf("trace has no %s span (has %v)", n, names)
		}
	}
}
