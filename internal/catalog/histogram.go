package catalog

import "sort"

// Histogram is an equi-depth (equi-height) histogram over a numeric
// column: buckets hold approximately equal row counts, so skewed
// distributions — precisely the Zipf-shaped catalogs the workload
// generator produces — estimate far better than a uniform spread would.
// The paper's estimator tolerates approximation by design (Section 4.3);
// the histogram narrows it where it costs nothing to maintain.
type Histogram struct {
	// bounds[i] is the upper edge of bucket i (inclusive); bucket i covers
	// (bounds[i-1], bounds[i]], with bucket 0 starting at Min.
	bounds []float64
	// counts[i] is the number of rows in bucket i.
	counts []int
	// Min is the smallest value; total the number of rows histogrammed.
	Min   float64
	total int
}

// DefaultHistogramBuckets is the bucket budget per column.
const DefaultHistogramBuckets = 32

// buildHistogram constructs an equi-depth histogram from raw values.
// Returns nil for empty input.
func buildHistogram(vals []float64, buckets int) *Histogram {
	if len(vals) == 0 {
		return nil
	}
	if buckets <= 0 {
		buckets = DefaultHistogramBuckets
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	h := &Histogram{Min: sorted[0], total: len(sorted)}
	per := (len(sorted) + buckets - 1) / buckets
	if per < 1 {
		per = 1
	}
	start := 0
	for start < len(sorted) {
		end := start + per
		if end > len(sorted) {
			end = len(sorted)
		}
		edge := sorted[end-1]
		// Extend the bucket over ties: a value must not straddle buckets.
		for end < len(sorted) && sorted[end] == edge {
			end++
		}
		h.bounds = append(h.bounds, edge)
		h.counts = append(h.counts, end-start)
		start = end
	}
	return h
}

// Total returns the number of rows histogrammed.
func (h *Histogram) Total() int { return h.total }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) }

// LessFrac estimates the fraction of rows with value < x. Bucket mass is
// attributed to the bucket's upper edge — exact when buckets hold one
// distinct value (small tables) and at most one bucket's depth off
// otherwise. Linear interpolation inside buckets was deliberately avoided:
// on discrete data it smears edge-concentrated mass and can misestimate a
// depth-1 bucket by its whole weight.
func (h *Histogram) LessFrac(x float64) float64 {
	if h.total == 0 || x <= h.Min {
		return 0
	}
	cum := 0
	for i, hi := range h.bounds {
		if x <= hi {
			break
		}
		cum += h.counts[i]
	}
	return float64(cum) / float64(h.total)
}

// LeqFrac estimates the fraction of rows with value ≤ x, under the same
// mass-at-upper-edge model as LessFrac.
func (h *Histogram) LeqFrac(x float64) float64 {
	if h.total == 0 || x < h.Min {
		return 0
	}
	cum := 0
	for i, hi := range h.bounds {
		if x < hi {
			break
		}
		cum += h.counts[i]
	}
	return float64(cum) / float64(h.total)
}
