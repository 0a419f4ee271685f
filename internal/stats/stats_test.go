package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tlb/internal/eventsim"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.N() != 0 {
		t.Fatal("empty Online not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 || o.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", o.N(), o.Mean())
	}
	// Sample variance of that classic dataset is 32/7.
	if math.Abs(o.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("min=%v max=%v", o.Min(), o.Max())
	}
}

// Welford must match the naive two-pass computation.
func TestOnlineMatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var o Online
		sum := 0.0
		for _, x := range xs {
			o.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		naiveVar := m2 / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(o.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(o.Var()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample not zero")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Fatalf("extremes: %v, %v", s.Percentile(0), s.Percentile(100))
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", p)
	}
	if p := s.Percentile(99); p < 99 || p > 100 {
		t.Fatalf("p99 = %v", p)
	}
	if s.Mean() != 50.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestSampleUnsortedInsertions(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.Add(x)
	}
	if s.Percentile(50) != 3 {
		t.Fatalf("median = %v", s.Percentile(50))
	}
	s.Add(0) // re-sort must trigger
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("min after new add = %v", got)
	}
}

func TestCDFOutput(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Y != 0 || pts[10].Y != 1 {
		t.Fatalf("CDF endpoints %v %v", pts[0], pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
	if s2 := (&Sample{}).CDF(5); s2 != nil {
		t.Fatal("empty CDF not nil")
	}
}

// TestHistogramCDFMatchesSample: a histogram's CDF is the one
// Sample.CDF draws over the same integers, on random data with ties,
// a single repeated value, and fewer or more observations than points.
func TestHistogramCDFMatchesSample(t *testing.T) {
	same := func(xs []int) bool {
		var h Histogram
		var s Sample
		for _, x := range xs {
			h.Add(x)
			s.Add(float64(x))
		}
		if h.N() != int64(s.N()) {
			return false
		}
		for _, points := range []int{0, 1, 2, 11, 50, 1000} {
			if !reflect.DeepEqual(h.CDF(points), s.CDF(points)) {
				t.Logf("%d points over %v: histogram %v, sample %v", points, xs, h.CDF(points), s.CDF(points))
				return false
			}
		}
		return true
	}
	for _, xs := range [][]int{nil, {0}, {7}, {3, 3, 3, 3}, {5, 0, 5, 0}} {
		if !same(xs) {
			t.Fatalf("CDFs differ over %v", xs)
		}
	}
	f := func(seed uint64, n uint16, span uint8) bool {
		rng := eventsim.NewRNG(seed)
		xs := make([]int, int(n%700)+1)
		for i := range xs {
			xs[i] = rng.Intn(int(span) + 1) // span 0: one value; small spans: ties
		}
		return same(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Percentile must be monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := eventsim.NewRNG(1)
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(rng.Float64() * 100)
	}
	f := func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesFormat(t *testing.T) {
	s := Series{Name: "afct"}
	s.Add(0.1, 2)
	s.Add(0.2, 4)
	out := s.Format()
	if !strings.HasPrefix(out, "# afct\n") {
		t.Fatalf("format: %q", out)
	}
	if !strings.Contains(out, "0.1") || !strings.Contains(out, "4") {
		t.Fatalf("format: %q", out)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(0.5, 10)
	ts.Add(0.7, 20)
	ts.Add(2.5, 6)
	ts.Add(-1, 99) // ignored

	means := ts.Means()
	if len(means) != 2 {
		t.Fatalf("%d mean points", len(means))
	}
	if means[0].X != 0.5 || means[0].Y != 15 {
		t.Fatalf("bucket 0 mean %v", means[0])
	}
	if means[1].X != 2.5 || means[1].Y != 6 {
		t.Fatalf("bucket 2 mean %v", means[1])
	}

	sums := ts.Sums()
	if len(sums) != 3 {
		t.Fatalf("%d sum points", len(sums))
	}
	if sums[0].Y != 30 || sums[1].Y != 0 || sums[2].Y != 6 {
		t.Fatalf("sums %v", sums)
	}

	rates := ts.Rates()
	if rates[0].Y != 30 {
		t.Fatalf("rate %v with width 1", rates[0].Y)
	}
}

func TestTimeSeriesWidthScaling(t *testing.T) {
	ts := NewTimeSeries(0.5)
	ts.Add(0.1, 100)
	rates := ts.Rates()
	if rates[0].Y != 200 {
		t.Fatalf("rate %v, want 200 (100 per 0.5s)", rates[0].Y)
	}
}

// Regression: int(at/width) on a huge timestamp wraps negative and
// indexed out of range; a merely-large one allocated an absurd slice.
// Both must land in the overflow bucket instead.
func TestTimeSeriesHugeTimestampOverflows(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(1e300, 7) // wrapped negative before the fix → panic
	ts.Add(1e9, 3)   // would have allocated a billion buckets
	ts.Add(0.5, 10)  // normal observation still lands in a bucket
	if n, sum := ts.Overflow(); n != 2 || sum != 10 {
		t.Fatalf("overflow n=%d sum=%v, want 2/10", n, sum)
	}
	if len(ts.buckets) != 1 {
		t.Fatalf("%d buckets allocated, want 1", len(ts.buckets))
	}
	means := ts.Means()
	if len(means) != 1 || means[0].Y != 10 {
		t.Fatalf("means %v: overflow must not leak into buckets", means)
	}
}

func TestTimeSeriesBucketCapBoundary(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(float64(maxTimeBuckets)-0.5, 1) // last in-range bucket
	ts.Add(float64(maxTimeBuckets), 1)     // first overflow value
	if n, _ := ts.Overflow(); n != 1 {
		t.Fatalf("overflow n=%d, want 1", n)
	}
	if len(ts.buckets) != maxTimeBuckets {
		t.Fatalf("%d buckets, want %d", len(ts.buckets), maxTimeBuckets)
	}
}

func TestTimeSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTimeSeries(0)
}

// The running-sum Mean and Builder-based Format must match the naive
// implementations exactly.
func TestSampleMeanMatchesNaive(t *testing.T) {
	rng := eventsim.NewRNG(7)
	var s Sample
	sum := 0.0
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*1e6 - 5e5
		s.Add(x)
		sum += x
	}
	if got, want := s.Mean(), sum/1000; got != want {
		t.Fatalf("mean %v, want %v", got, want)
	}
	// Percentile sorts xs in place; Mean must be unaffected.
	s.Percentile(50)
	if got, want := s.Mean(), sum/1000; got != want {
		t.Fatalf("mean after sort %v, want %v", got, want)
	}
}

func TestSeriesFormatMatchesNaive(t *testing.T) {
	rng := eventsim.NewRNG(9)
	s := Series{Name: "curve"}
	want := "# curve\n"
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*10, rng.Float64()*1e9
		s.Add(x, y)
		want += fmt.Sprintf("%-12.6g %.6g\n", x, y)
	}
	if got := s.Format(); got != want {
		t.Fatalf("Format diverged from naive concatenation:\n%q\nvs\n%q", got, want)
	}
}
