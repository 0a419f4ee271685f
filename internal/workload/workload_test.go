package workload

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

func TestCDFValidation(t *testing.T) {
	if _, err := NewCDF("one-point", []CDFPoint{{100, 1}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := NewCDF("not-ending-at-1", []CDFPoint{{100, 0.5}, {200, 0.9}}); err == nil {
		t.Error("CDF not ending at 1 accepted")
	}
	if _, err := NewCDF("non-monotone-frac", []CDFPoint{{100, 0.5}, {200, 0.4}, {300, 1}}); err == nil {
		t.Error("non-monotone fraction accepted")
	}
	if _, err := NewCDF("non-monotone-size", []CDFPoint{{100, 0.5}, {50, 1}}); err == nil {
		t.Error("non-monotone size accepted")
	}
	if _, err := NewCDF("ok", []CDFPoint{{100, 0.5}, {1000, 1}}); err != nil {
		t.Errorf("valid CDF rejected: %v", err)
	}
}

func TestCDFSamplesWithinRange(t *testing.T) {
	rng := eventsim.NewRNG(1)
	for _, c := range publishedCDFs() {
		d := c.d
		min := d.points[0].Size
		max := d.points[len(d.points)-1].Size
		for i := 0; i < 10000; i++ {
			s := d.Sample(rng)
			if s < 1 || s > max {
				t.Fatalf("%s sample %v outside (0, %v]", c.name, s, max)
			}
			_ = min
		}
	}
}

func TestCDFSampleMeanMatchesAnalyticMean(t *testing.T) {
	rng := eventsim.NewRNG(2)
	d := WebSearch()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	got := sum / n
	want := d.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("sampled mean %.0f vs analytic %.0f (>5%% off)", got, want)
	}
}

func TestWebSearchHeavyTail(t *testing.T) {
	rng := eventsim.NewRNG(3)
	d := WebSearch()
	var total, fromBig float64
	bigCount, n := 0, 100000
	for i := 0; i < n; i++ {
		s := float64(d.Sample(rng))
		total += s
		if s > 1e6 {
			fromBig += s
			bigCount++
		}
	}
	fracFlows := float64(bigCount) / float64(n)
	fracBytes := fromBig / total
	// Paper: ~30% of web-search flows > 1MB carrying the vast
	// majority of bytes.
	if fracFlows < 0.2 || fracFlows > 0.4 {
		t.Fatalf(">1MB flow fraction = %.2f, want ~0.3", fracFlows)
	}
	if fracBytes < 0.85 {
		t.Fatalf(">1MB byte share = %.2f, want > 0.85", fracBytes)
	}
}

func TestDataMiningMostlyTinyFlows(t *testing.T) {
	rng := eventsim.NewRNG(4)
	d := DataMining()
	small, n := 0, 100000
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= 100*units.KB {
			small++
		}
	}
	// The VL2 data-mining CDF puts ~60% of flows at or below ~60KB and
	// half below ~1.1KB: the mass sits far below 100KB.
	if frac := float64(small) / float64(n); frac < 0.58 {
		t.Fatalf("<=100KB fraction = %.2f, want >= 0.58", frac)
	}
	// "Obvious boundary" between mice and elephants (paper §6.2): the
	// medium range 100KB–1MB is nearly empty.
	medium := 0
	for i := 0; i < n; i++ {
		if s := d.Sample(rng); s > 100*units.KB && s < units.MB {
			medium++
		}
	}
	if frac := float64(medium) / float64(n); frac > 0.1 {
		t.Fatalf("medium-flow fraction = %.2f, want < 0.1", frac)
	}
}

func TestUniformDist(t *testing.T) {
	rng := eventsim.NewRNG(5)
	u := Uniform{MinSize: 10 * units.KB, MaxSize: 100 * units.KB}
	var sum float64
	for i := 0; i < 50000; i++ {
		s := u.Sample(rng)
		if s < u.MinSize || s > u.MaxSize {
			t.Fatalf("uniform sample %v out of range", s)
		}
		sum += float64(s)
	}
	if mean := sum / 50000; math.Abs(mean-u.Mean())/u.Mean() > 0.02 {
		t.Fatalf("uniform mean %v vs %v", mean, u.Mean())
	}
	degenerate := Uniform{MinSize: 5, MaxSize: 5}
	if degenerate.Sample(rng) != 5 {
		t.Fatal("degenerate uniform")
	}
}

func TestFixedAndTruncated(t *testing.T) {
	rng := eventsim.NewRNG(6)
	f := Fixed{Size: 10 * units.MB}
	if f.Sample(rng) != 10*units.MB || f.Mean() != 1e7 {
		t.Fatal("fixed dist")
	}
	tr := Truncated{Dist: DataMining(), Max: 50 * units.MB}
	for i := 0; i < 20000; i++ {
		if s := tr.Sample(rng); s > 50*units.MB {
			t.Fatalf("truncated sample %v above cap", s)
		}
	}
	if tr.Mean() > float64(50*units.MB) || tr.Mean() <= 0 {
		t.Fatalf("truncated mean %v", tr.Mean())
	}
	if tr.Mean() >= DataMining().Mean() {
		t.Fatal("truncation did not lower the mean")
	}
}

func TestPoissonGenerate(t *testing.T) {
	sizes := Uniform{MinSize: 10 * units.KB, MaxSize: 100 * units.KB}
	pc := PoissonConfig{
		Hosts:     16,
		Sizes:     sizes,
		Rate:      0.5 * units.Gbps.BytesPerSecond() * 16 / sizes.Mean(),
		Deadlines: DeadlineDist{Min: 5 * units.Millisecond, Max: 25 * units.Millisecond, OnlyBelow: 100 * units.KB},
		PerLeaf:   1,
	}
	src, err := pc.Source(eventsim.NewRNG(7), 2000)
	if err != nil {
		t.Fatal(err)
	}
	flows := Collect(src)
	if len(flows) != 2000 {
		t.Fatalf("got %d flows", len(flows))
	}
	var prev units.Time
	for i, f := range flows {
		if f.Start < prev {
			t.Fatalf("flow %d arrives before its predecessor", i)
		}
		prev = f.Start
		if f.Src == f.Dst || f.Src < 0 || f.Src >= 16 || f.Dst < 0 || f.Dst >= 16 {
			t.Fatalf("flow %d endpoints %d->%d", i, f.Src, f.Dst)
		}
		if f.Deadline != 0 {
			d := f.Deadline - f.Start
			if d < 5*units.Millisecond || d > 25*units.Millisecond {
				t.Fatalf("deadline %v out of range", d)
			}
		}
	}
	// Empirical arrival rate should be close to the configured rate.
	dur := flows[len(flows)-1].Start.Seconds()
	gotRate := float64(len(flows)) / dur
	if math.Abs(gotRate-pc.Rate)/pc.Rate > 0.1 {
		t.Fatalf("arrival rate %.0f vs configured %.0f", gotRate, pc.Rate)
	}
}

func TestPoissonCrossLeafOnly(t *testing.T) {
	pc := PoissonConfig{Hosts: 16, Sizes: Fixed{Size: 10 * units.KB}, Rate: 50_000, PerLeaf: 4}
	src, err := pc.Source(eventsim.NewRNG(8), 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Collect(src) {
		if f.Src/4 == f.Dst/4 {
			t.Fatalf("intra-leaf flow %d->%d with PerLeaf 4", f.Src, f.Dst)
		}
	}
}

func TestPoissonValidation(t *testing.T) {
	rng := eventsim.NewRNG(9)
	if _, err := (PoissonConfig{Hosts: 1, Sizes: Fixed{Size: 1}, Rate: 1000, PerLeaf: 1}).Source(rng, 10); err == nil {
		t.Error("1-host config accepted")
	}
	if _, err := (PoissonConfig{Hosts: 4, Sizes: Fixed{Size: 1}, PerLeaf: 1}).Source(rng, 10); err == nil {
		t.Error("zero rate accepted")
	}
	// Cross-leaf pairs on one leaf do not exist: the pair draw would
	// redraw forever (inside Next, where nothing can cancel it), so the
	// source is refused instead.
	oneLeaf := PoissonConfig{Hosts: 4, Sizes: Fixed{Size: 1}, Rate: 1000, PerLeaf: 4}
	if _, err := oneLeaf.Source(rng, 10); err == nil || !strings.Contains(err.Error(), ">= 2 leaves") {
		t.Errorf("cross-leaf traffic on one leaf: %v", err)
	}
}

func TestDeadlineDist(t *testing.T) {
	rng := eventsim.NewRNG(10)
	d := DeadlineDist{Min: 5, Max: 25, OnlyBelow: 100}
	if d.Sample(rng, 200) != 0 {
		t.Fatal("deadline assigned above OnlyBelow")
	}
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng, 50)
		if v < 5 || v > 25 {
			t.Fatalf("deadline %v out of [5,25]", v)
		}
	}
	none := DeadlineDist{}
	if none.Sample(rng, 50) != 0 {
		t.Fatal("empty dist assigned a deadline")
	}
}

func TestStaticMix(t *testing.T) {
	rng := eventsim.NewRNG(11)
	m := StaticMix{
		ShortFlows: 100,
		LongFlows:  5,
		ShortSizes: Uniform{MinSize: 10 * units.KB, MaxSize: 100 * units.KB},
		LongSizes:  Fixed{Size: 10 * units.MB},
		Senders:    []int{0, 1, 2},
		Receivers:  []int{4, 5, 6},
		Deadlines:  DeadlineDist{Min: 5 * units.Millisecond, Max: 25 * units.Millisecond, OnlyBelow: 100 * units.KB},
	}
	flows, err := m.Generate(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 105 {
		t.Fatalf("%d flows", len(flows))
	}
	longs := 0
	for _, f := range flows {
		if f.Size > 100*units.KB {
			longs++
			if f.Deadline != 0 {
				t.Fatal("long flow got a deadline")
			}
		} else if f.Deadline == 0 {
			t.Fatal("short flow without deadline")
		}
	}
	if longs != 5 {
		t.Fatalf("%d long flows", longs)
	}
	if _, err := (StaticMix{ShortFlows: 1, ShortSizes: Fixed{Size: 1}, LongSizes: Fixed{Size: 1}}).Generate(rng); err == nil {
		t.Fatal("mix without hosts accepted")
	}
	// src and dst are drawn independently: a host on both sides could be
	// paired with itself, on some seeds only.
	m.Receivers = []int{4, 2}
	if _, err := m.Generate(rng); err == nil || !strings.Contains(err.Error(), "host 2 is both") {
		t.Fatalf("mix with host 2 on both sides: %v", err)
	}
}

// namedCDF is a published distribution with the name failure messages
// give it.
type namedCDF struct {
	name string
	d    *CDFDist
}

func publishedCDFs() []namedCDF {
	return []namedCDF{{"websearch", WebSearch()}, {"datamining", DataMining()}}
}

// refQuantile is quantile as first written, with the anchor logs taken
// on every call.
func refQuantile(d *CDFDist, u float64) units.Bytes {
	pts := d.points
	if u <= pts[0].Frac {
		return pts[0].Size
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Frac >= u })
	if i >= len(pts) {
		return pts[len(pts)-1].Size
	}
	lo, hi := pts[i-1], pts[i]
	if hi.Frac == lo.Frac || hi.Size == lo.Size {
		return hi.Size
	}
	frac := (u - lo.Frac) / (hi.Frac - lo.Frac)
	ls := math.Log(float64(lo.Size)) + frac*(math.Log(float64(hi.Size))-math.Log(float64(lo.Size)))
	s := units.Bytes(math.Exp(ls))
	if s < 1 {
		s = 1
	}
	return s
}

// refMean is the mean as first written: 100 000 midpoint steps.
func refMean(d *CDFDist) float64 {
	const steps = 100000
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		sum += float64(refQuantile(d, u))
	}
	return sum / steps
}

// refTruncatedMean is Truncated.Mean over a CDFDist as first written:
// 20 000 midpoint steps on every call.
func refTruncatedMean(d *CDFDist, max units.Bytes) float64 {
	const steps = 20000
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		s := refQuantile(d, u)
		if s > max {
			s = max
		}
		sum += float64(s)
	}
	return sum / steps
}

// TestTruncatedMeanIsTheIntegration pins set-up to the bit: every
// planned arrival rate divides by one of these means, so the memoized
// truncated mean and the precomputed logs must give exactly the float64
// the per-call integration gave — for the cold first call, the memoized
// second, and eight goroutines racing for a cold memo. The interpolated
// quantile that sampling uses must match the per-call logs too.
func TestTruncatedMeanIsTheIntegration(t *testing.T) {
	for _, c := range publishedCDFs() {
		d := c.d
		if got, want := d.Mean(), refMean(d); got != want {
			t.Errorf("%s: Mean() = %v, want %v", c.name, got, want)
		}
		// One fresh distribution takes every cap in turn, so a memo that
		// answered one cap with another's mean would show.
		beyond := 2 * d.points[len(d.points)-1].Size
		fresh := MustCDF(c.name, d.points)
		for _, call := range []string{"cold", "memoized"} {
			for _, max := range []units.Bytes{6 * units.KB, 100 * units.KB, 20 * units.MB, 1000 * units.MB, beyond} {
				if got, want := (Truncated{Dist: fresh, Max: max}).Mean(), refTruncatedMean(d, max); got != want {
					t.Errorf("%s<=%v %s: Mean() = %v, want %v", c.name, max, call, got, want)
				}
			}
		}
		rng := eventsim.NewRNG(12)
		us := []float64{0, 0.5 / truncSteps, 1 - 0.5/truncSteps}
		for _, p := range d.points {
			us = append(us, p.Frac, math.Nextafter(p.Frac, 0), math.Nextafter(p.Frac, 1))
		}
		for i := 0; i < 10000; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if got, want := d.quantile(u), refQuantile(d, u); got != want {
				t.Fatalf("%s: quantile(%v) = %v, want %v", c.name, u, got, want)
			}
		}
	}

	fresh := MustCDF("websearch", WebSearch().points)
	tr := Truncated{Dist: fresh, Max: 20 * units.MB}
	want := refTruncatedMean(fresh, 20*units.MB)
	var wg sync.WaitGroup
	got := make([]float64, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = tr.Mean()
		}(g)
	}
	wg.Wait()
	for g, m := range got {
		if m != want {
			t.Errorf("goroutine %d: Mean() = %v, want %v", g, m, want)
		}
	}
}

// Property: quantile is monotone in u for any valid CDF, so sampling
// preserves stochastic ordering.
func TestQuantileMonotoneProperty(t *testing.T) {
	d := WebSearch()
	f := func(a, b uint16) bool {
		ua := float64(a) / 65536
		ub := float64(b) / 65536
		if ua > ub {
			ua, ub = ub, ua
		}
		return d.quantile(ua) <= d.quantile(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
