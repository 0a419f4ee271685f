package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"tlb/internal/eventsim"
)

// bracketBound checks est against the exact quantile's bracketing
// order statistics: any estimator honoring a relative bound alpha must
// land in [lo·(1-alpha), hi·(1+alpha)] for positive data.
func bracketBound(t *testing.T, xs []float64, q, est, alpha float64) {
	t.Helper()
	rank := q * float64(len(xs)-1)
	lo := xs[int(rank)]
	hi := xs[int(math.Ceil(rank))]
	if est < lo*(1-alpha)-1e-12 || est > hi*(1+alpha)+1e-12 {
		t.Fatalf("q=%v: estimate %v outside [%v, %v]·(1±%v)", q, est, lo, hi, alpha)
	}
}

func TestSketchAccuracyLogUniform(t *testing.T) {
	rng := eventsim.NewRNG(11)
	s := NewQuantileSketch()
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform over [1e-6, 1e2] seconds — the FCT range the
		// figures span.
		x := math.Exp(math.Log(1e-6) + rng.Float64()*math.Log(1e8))
		s.Add(x)
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		bracketBound(t, xs, q, s.Quantile(q), SketchAlpha)
	}
	if s.min != xs[0] || s.max != xs[len(xs)-1] {
		t.Fatalf("min/max %v/%v, want %v/%v", s.min, s.max, xs[0], xs[len(xs)-1])
	}
	if s.Collapsed() {
		t.Fatal("10k log-uniform values must not hit the bucket cap")
	}
}

func TestSketchZerosAndNegatives(t *testing.T) {
	s := NewQuantileSketch()
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sketch quantile not 0")
	}
	s.Add(0)
	s.Add(0)
	s.Add(0)
	if s.Quantile(0.5) != 0 || s.Quantile(1) != 0 {
		t.Fatalf("all-zero quantiles %v %v", s.Quantile(0.5), s.Quantile(1))
	}
	s.Add(-2.5)
	if got := s.Quantile(0); got != -2.5 {
		t.Fatalf("q0 with negative = %v", got)
	}
	s.Add(10)
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("q1 = %v", got)
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	if s.N() != 5 {
		t.Fatalf("non-finite values must be ignored, n=%d", s.N())
	}
}

func TestSketchCollapseKeepsUpperQuantiles(t *testing.T) {
	rng := eventsim.NewRNG(17)
	s := NewQuantileSketch()
	// 2048 buckets cover a γ^2048 ≈ 6e17 value ratio; the data spans
	// 1e26, about 2 960 buckets, of which 5 000 draws fill ~2 400, so
	// collapse must trigger. Retained buckets then cover the top ~69%
	// of the log-uniform mass, so quantiles from 0.9 up must keep the
	// bound while lower ones are sacrificed.
	xs := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		x := math.Exp(math.Log(1e-13) + rng.Float64()*math.Log(1e26))
		s.Add(x)
		xs = append(xs, x)
	}
	if !s.Collapsed() {
		t.Fatal("collapse must have triggered")
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999, 1} {
		bracketBound(t, xs, q, s.Quantile(q), SketchAlpha)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.02 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("collapsed sketch not monotone at q=%v", q)
		}
		prev = v
	}
}

// TestFlowAggRatios: the first AddFCT creates the sketch, and the
// derived ratios read the counters (0 on a zero accumulator).
func TestFlowAggRatios(t *testing.T) {
	var a FlowAgg
	a.DeadlineTotal, a.DeadlineMissed = 6, 3
	a.GoodputSum, a.GoodputN = 13e9, 13
	a.AddFCT(0.010)
	a.AddFCT(0.020)
	a.AddFCT(0.030)
	if got := a.MissRatio(); got != 0.5 {
		t.Fatalf("miss ratio %v", got)
	}
	if got := a.MeanGoodput(); got != 1e9 {
		t.Fatalf("mean goodput %v", got)
	}
	if a.FCT.N() != 3 || math.Abs(a.FCT.Mean()-0.020) > 1e-12 {
		t.Fatalf("fct n=%d mean=%v", a.FCT.N(), a.FCT.Mean())
	}
	if a.Sketch == nil || a.Sketch.N() != 3 {
		t.Fatal("AddFCT must create and feed the sketch")
	}
	if p := a.Sketch.Quantile(1); math.Abs(p-0.030) > 0.030*SketchAlpha {
		t.Fatalf("sketch max quantile %v", p)
	}
	if (&FlowAgg{}).MissRatio() != 0 || (&FlowAgg{}).MeanGoodput() != 0 {
		t.Fatal("zero agg ratios must be 0")
	}
}

// TestFlowAggExactUpToCap pins where FlowAgg's FCT percentiles and CDF
// switch: with ExactFCTCap completions they are a Sample's over the
// same FCTs, with one more the sketch's, and the buffer is gone.
func TestFlowAggExactUpToCap(t *testing.T) {
	rng := eventsim.NewRNG(3)
	var a FlowAgg
	var exact Sample
	for i := 0; i < ExactFCTCap; i++ {
		x := 1e-4 * math.Exp(6*rng.Float64())
		a.AddFCT(x)
		exact.Add(x)
	}
	for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
		if got, want := a.FCTs().Percentile(p), exact.Percentile(p); got != want {
			t.Fatalf("n = cap: p%v = %v, Sample says %v", p, got, want)
		}
	}
	if got, want := a.FCTs().CDF(50), exact.CDF(50); !reflect.DeepEqual(got, want) {
		t.Fatalf("n = cap: CDF %v, Sample says %v", got, want)
	}
	a.AddFCT(0.05)
	for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
		if got, want := a.FCTs().Percentile(p), a.Sketch.Percentile(p); got != want {
			t.Fatalf("n = cap+1: p%v = %v, the sketch says %v", p, got, want)
		}
	}
	if got, want := a.FCTs().CDF(50), a.Sketch.CDF(50); !reflect.DeepEqual(got, want) || len(got) != 50 {
		t.Fatalf("n = cap+1: CDF %v, the sketch says %v", got, want)
	}
	if a.exact.N() != 0 {
		t.Fatalf("n = cap+1: the exact buffer still holds %d FCTs", a.exact.N())
	}
}
