package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms emit cumulative le-buckets plus _sum
// and _count series. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// TYPE must appear once per metric family, not once per labeled
	// series — Prometheus rejects a second TYPE line for the same name.
	typed := make(map[string]bool)
	announce := func(name, kind string) error {
		if typed[name] {
			return nil
		}
		typed[name] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, m := range r.Snapshot() {
		var err error
		switch m.Kind {
		case "counter", "gauge":
			if err = announce(m.Name, m.Kind); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s %d\n", promSeries(m.Name, m.Labels, ""), m.Value)
		case "histogram":
			if err = announce(m.Name, "histogram"); err != nil {
				return err
			}
			cum := int64(0)
			for i, c := range m.Hist.Counts {
				cum += c
				le := "+Inf"
				if i < len(m.Hist.Bounds) {
					le = formatFloat(m.Hist.Bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s %d\n", promSeries(m.Name+"_bucket", m.Labels, `le="`+le+`"`), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s %s\n", promSeries(m.Name+"_sum", m.Labels, ""), formatFloat(m.Hist.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s %d\n", promSeries(m.Name+"_count", m.Labels, ""), m.Hist.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promSeries assembles name{labels,extra}.
func promSeries(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render formats a snapshot as aligned human-readable text, for the
// shell's \stats command. Histograms print count, mean and the bucket
// spread on one line.
func (r *Registry) Render() string {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return "(no metrics recorded)\n"
	}
	var b strings.Builder
	width := 0
	rows := make([][2]string, 0, len(snap))
	for _, m := range snap {
		name := m.Name
		if m.Labels != "" {
			name += "{" + m.Labels + "}"
		}
		var val string
		switch m.Kind {
		case "histogram":
			mean := 0.0
			if m.Hist.Count > 0 {
				mean = m.Hist.Sum / float64(m.Hist.Count)
			}
			val = fmt.Sprintf("count %d  mean %.3g  p50 %.3g  p99 %.3g  %s",
				m.Hist.Count, mean, m.Hist.Quantile(0.50), m.Hist.Quantile(0.99), sparkline(m.Hist))
		default:
			val = strconv.FormatInt(m.Value, 10)
		}
		if len(name) > width {
			width = len(name)
		}
		rows = append(rows, [2]string{name, val})
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, row[0], row[1])
	}
	return b.String()
}

// sparkline compresses a histogram's occupied buckets into "≤bound:count"
// cells, skipping empties so wide bucket sets stay readable.
func sparkline(h *HistSnapshot) string {
	var cells []string
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		le := "inf"
		if i < len(h.Bounds) {
			le = formatFloat(h.Bounds[i])
		}
		cells = append(cells, "≤"+le+":"+strconv.FormatInt(c, 10))
	}
	if len(cells) == 0 {
		return "(empty)"
	}
	return strings.Join(cells, " ")
}

// Expvar returns the registry state in an expvar-friendly shape: metric
// name (plus labels) → value, with histograms expanded to count/sum/mean.
// Publish it with PublishExpvar or expvar.Publish(name, expvar.Func(...)).
func (r *Registry) Expvar() any {
	out := make(map[string]any)
	for _, m := range r.Snapshot() {
		name := m.Name
		if m.Labels != "" {
			name += "{" + m.Labels + "}"
		}
		switch m.Kind {
		case "histogram":
			mean := 0.0
			if m.Hist.Count > 0 {
				mean = m.Hist.Sum / float64(m.Hist.Count)
			}
			out[name] = map[string]any{"count": m.Hist.Count, "sum": m.Hist.Sum, "mean": mean}
		default:
			out[name] = m.Value
		}
	}
	return out
}

// PublishExpvar exposes the registry under the given expvar name (shown at
// /debug/vars). Safe to call more than once per process: republishing an
// existing name is a no-op (expvar itself would panic).
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(r.Expvar))
}
