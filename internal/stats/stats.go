// Package stats provides the small statistics toolkit the experiments
// reduce their measurements with: a streaming mean, percentile
// and CDF estimation over collected samples, an exact integer
// histogram, a relative-error quantile sketch, the per-class flow
// accumulator every run folds into, and time-bucketed series for
// "instantaneous" plots.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Online accumulates a count and a running mean in one pass
// (Welford's incremental update).
type Online struct {
	n    int64
	mean float64
}

// Add folds one observation in.
func (o *Online) Add(x float64) {
	o.n++
	o.mean += (x - o.mean) / float64(o.n)
}

// N returns the observation count.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Sample collects raw observations for percentile/CDF queries. It
// sorts lazily and re-sorts only after new data arrives.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between order statistics; 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := float64(p / 100 * float64(len(s.xs)-1))
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	// Interpolate in difference form and clamp to the bracketing
	// samples: the two-product form can round one ulp outside the
	// bracket, leaking values beyond the observed range.
	v := s.xs[lo] + float64(frac*(s.xs[lo+1]-s.xs[lo]))
	if v < s.xs[lo] {
		v = s.xs[lo]
	}
	if v > s.xs[lo+1] {
		v = s.xs[lo+1]
	}
	return v
}

// CDF returns (value, cumulative fraction) pairs at the given number of
// evenly spaced quantiles, suitable for plotting.
func (s *Sample) CDF(points int) []Point {
	if len(s.xs) == 0 || points < 2 {
		return nil
	}
	s.ensureSorted()
	out := make([]Point, 0, points)
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		idx := int(q * float64(len(s.xs)-1))
		out = append(out, Point{X: s.xs[idx], Y: q})
	}
	return out
}

// Histogram counts non-negative integer observations exactly, one
// counter per value up to the largest seen, so memory follows the
// value range rather than the observation count. Its CDF is the one
// Sample.CDF draws over the same observations.
type Histogram struct {
	counts []int64
	n      int64
}

// Add counts one observation; v must be non-negative.
func (h *Histogram) Add(v int) {
	if v >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, v+1-len(h.counts))...)
	}
	h.counts[v]++
	h.n++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// CDF returns (value, cumulative fraction) pairs at the given number of
// evenly spaced quantiles: at q = i/(points-1), the value of rank
// int(q*(N-1)) in sorted order, exactly as Sample.CDF picks it.
func (h *Histogram) CDF(points int) []Point {
	if h.n == 0 || points < 2 {
		return nil
	}
	out := make([]Point, 0, points)
	v, below := 0, h.counts[0] // below: observations of value <= v
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		rank := int64(q * float64(h.n-1))
		for below <= rank {
			v++
			below += h.counts[v]
		}
		out = append(out, Point{X: float64(v), Y: q})
	}
	return out
}

// Point is one (x, y) plot coordinate.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve of one figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Format renders the series as aligned "x y" rows for terminal output.
// A strings.Builder keeps rendering linear in the point count; the
// previous += concatenation re-copied the whole prefix per row, which
// is quadratic across a large figure's render path.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-12.6g %.6g\n", p.X, p.Y)
	}
	return b.String()
}

// TimeSeries buckets observations by time for "instantaneous" plots
// (Fig. 8/9): each bucket keeps the count and sum of observations
// falling in [i*width, (i+1)*width).
type TimeSeries struct {
	width   float64
	buckets []bucket
}

// MaxTimeBuckets caps the bucket slice, bounding memory at ~16 MB even
// for adversarial timestamps. spec.Compile rejects a run that would
// reach it, so every observation of a run lands in a bucket.
const MaxTimeBuckets = 1 << 20

type bucket struct {
	n   int64
	sum float64
}

// NewTimeSeries creates a series with the given bucket width (in
// whatever unit the caller keys by, typically seconds).
func NewTimeSeries(width float64) *TimeSeries {
	if width <= 0 {
		panic("stats: non-positive bucket width")
	}
	return &TimeSeries{width: width}
}

// Add records an observation at the given time. Observations before 0
// or at or beyond MaxTimeBuckets*width are dropped.
func (t *TimeSeries) Add(at, value float64) {
	// Compare in float space before converting: int(huge/width) wraps
	// negative and would index out of range, and a merely-large quotient
	// would allocate an absurd bucket slice.
	if at < 0 || at/t.width >= MaxTimeBuckets {
		return
	}
	i := int(at / t.width)
	for len(t.buckets) <= i {
		t.buckets = append(t.buckets, bucket{})
	}
	t.buckets[i].n++
	t.buckets[i].sum += value
}

// Window returns the count and sum of the observations in the buckets
// that start in [from, to): with both on bucket boundaries, exactly the
// observations at times in [from, to).
func (t *TimeSeries) Window(from, to float64) (n int64, sum float64) {
	for i, b := range t.buckets {
		if at := float64(i) * t.width; at >= from && at < to {
			n += b.n
			sum += b.sum
		}
	}
	return n, sum
}

// Means returns one point per non-empty bucket: (bucket midpoint,
// bucket mean).
func (t *TimeSeries) Means() []Point {
	var out []Point
	for i, b := range t.buckets {
		if b.n == 0 {
			continue
		}
		out = append(out, Point{
			X: (float64(i) + 0.5) * t.width,
			Y: b.sum / float64(b.n),
		})
	}
	return out
}

// Sums returns one point per bucket (including empty ones up to the
// last occupied): (bucket midpoint, bucket sum). Useful for rates:
// sum of bytes per bucket / width = throughput.
func (t *TimeSeries) Sums() []Point {
	out := make([]Point, len(t.buckets))
	for i, b := range t.buckets {
		out[i] = Point{X: (float64(i) + 0.5) * t.width, Y: b.sum}
	}
	return out
}

// Rates divides bucket sums by the bucket width, turning byte counts
// into throughput curves.
func (t *TimeSeries) Rates() []Point {
	out := t.Sums()
	for i := range out {
		out[i].Y /= t.width
	}
	return out
}
