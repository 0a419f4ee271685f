package stats

import (
	"math"
	"sort"
)

// SketchAlpha is the sketch's relative-error bound: a reported quantile
// is within 1% of the true value.
const SketchAlpha = 0.01

// sketchGamma is the bucket ratio (1+α)/(1-α), and sketchLnGamma its
// logarithm, which index and value divide and multiply by. The typed
// constant holds the float64 the ratio rounds to, so sums with it round
// as run-time arithmetic does.
const sketchGamma float64 = (1 + SketchAlpha) / (1 - SketchAlpha)

var sketchLnGamma = math.Log(sketchGamma)

// sketchBuckets caps the bucket map. With γ ≈ 1.0202, 2048 buckets
// span a dynamic range of e^(2048·ln γ) ≈ 6e17, far wider than any FCT
// distribution; the cap only engages on adversarial inputs, collapsing
// the *lowest* buckets so upper quantiles (the p99s the figures report)
// keep their bound.
const sketchBuckets = 2048

// QuantileSketch is a DDSketch-style streaming quantile estimator with
// a relative-error guarantee: for any quantile q whose true value is x,
// the estimate x̂ satisfies |x̂ - x| <= SketchAlpha·x, using
// O(log(max/min)/log(γ)) memory independent of the observation count.
//
// Values map to geometric buckets: index(x) = ceil(ln x / ln γ),
// estimated back as the bucket midpoint 2·γ^i/(γ+1). Non-positive
// values count in a dedicated zero bucket (estimated as exactly 0,
// which FCTs below the simulator's time resolution round to anyway).
type QuantileSketch struct {
	counts map[int]int64
	zeros  int64
	n      int64
	min    float64
	max    float64
	// collapsed is set once the bucket cap has merged the lowest
	// buckets, degrading low quantiles only.
	collapsed bool
}

// NewQuantileSketch creates an empty sketch.
func NewQuantileSketch() *QuantileSketch {
	return &QuantileSketch{counts: make(map[int]int64)}
}

// N returns the observation count.
func (s *QuantileSketch) N() int64 { return s.n }

// Collapsed reports whether the bucket cap ever forced low buckets to
// merge (low quantiles may exceed the bound afterwards; high ones keep
// it).
func (s *QuantileSketch) Collapsed() bool { return s.collapsed }

func (s *QuantileSketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / sketchLnGamma))
}

func (s *QuantileSketch) value(i int) float64 {
	// Bucket i covers (γ^(i-1), γ^i]; the midpoint in relative terms
	// is 2·γ^i/(γ+1), within α of everything in it.
	return 2 * math.Exp(float64(i)*sketchLnGamma) / (sketchGamma + 1)
}

// Add folds one observation in. NaN is ignored; non-positive values
// (and +Inf's negation) count in the zero bucket.
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if x <= 0 {
		s.zeros++
		return
	}
	s.counts[s.index(x)]++
	s.collapse()
}

func (s *QuantileSketch) sortedKeys() []int {
	keys := make([]int, 0, len(s.counts))
	//simlint:allow maporder(keys are collected here and sorted below before any use)
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// collapse merges the lowest buckets whenever the cap is exceeded,
// preserving upper-quantile accuracy.
func (s *QuantileSketch) collapse() {
	if len(s.counts) <= sketchBuckets {
		return
	}
	keys := s.sortedKeys()
	// Fold everything below the cut into the first retained bucket.
	cut := len(keys) - sketchBuckets
	keep := keys[cut]
	for _, k := range keys[:cut] {
		s.counts[keep] += s.counts[k]
		delete(s.counts, k)
	}
	s.collapsed = true
}

// Quantile returns the estimated q-quantile (q in [0,1]); 0 when
// empty. The rank convention matches Sample.Percentile: rank q·(n-1)
// over the sorted observations.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.n-1))
	if rank >= s.n {
		rank = s.n - 1
	}
	if rank < s.zeros {
		// All zero-bucket values are <= 0; estimate with the smallest
		// observation (exact when everything non-positive is 0).
		if s.min < 0 {
			return s.min
		}
		return 0
	}
	acc := s.zeros
	for _, k := range s.sortedKeys() {
		acc += s.counts[k]
		if acc > rank {
			return s.clamp(s.value(k))
		}
	}
	return s.clamp(s.max)
}

// Percentile is Quantile with p in [0,100], mirroring Sample.
func (s *QuantileSketch) Percentile(p float64) float64 {
	return s.Quantile(p / 100)
}

// CDF returns (value, cumulative fraction) pairs at the given number of
// evenly spaced quantiles, by Sample.CDF's rank convention.
func (s *QuantileSketch) CDF(points int) []Point {
	if s.n == 0 || points < 2 {
		return nil
	}
	out := make([]Point, 0, points)
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		out = append(out, Point{X: s.Quantile(q), Y: q})
	}
	return out
}

// clamp keeps estimates inside the observed range: bucket midpoints
// can stick out past min/max by up to α, and the observed extremes
// are always the better answer there.
func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}
