// Package workload generates the traffic the paper evaluates under:
// heavy-tailed flow-size distributions (the web-search and data-mining
// CDFs from the DCTCP/VL2 measurement studies the paper cites), Poisson
// flow arrivals at a target load, uniform short/long mixes for the
// motivation and model-verification experiments, and per-flow deadline
// assignment.
package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	// Sample draws one flow size (>= 1 byte).
	Sample(rng *eventsim.RNG) units.Bytes
	// Mean returns the distribution's mean size in bytes.
	Mean() float64
}

// CDFPoint anchors an empirical CDF: Frac of flows are <= Size bytes.
type CDFPoint struct {
	Size units.Bytes
	Frac float64
}

// CDFDist interpolates between empirical CDF anchor points, the way
// packet-level simulators replay published workload CDFs. Between
// anchors the size is interpolated linearly in log-size space, which
// matches how these heavy-tailed distributions are usually plotted and
// sampled.
//
// The anchors, their logs and the mean are fixed at construction; the
// only mutable state is the memo of truncated means, behind mu, so one
// distribution may be shared by every goroutine.
type CDFDist struct {
	points []CDFPoint
	// logSize[i] is math.Log(points[i].Size), taken once here instead of
	// on every interpolated draw.
	logSize []float64
	mean    float64

	mu sync.Mutex
	// truncMean memoizes truncatedMean per cap.
	truncMean map[units.Bytes]float64
}

// NewCDF builds a distribution from anchor points. Points must be
// sorted by fraction with the last at 1.0.
func NewCDF(name string, points []CDFPoint) (*CDFDist, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: CDF %q needs >= 2 points", name)
	}
	for i, p := range points {
		if p.Size < 1 || p.Frac < 0 || p.Frac > 1 {
			return nil, fmt.Errorf("workload: CDF %q point %d out of range", name, i)
		}
		if i > 0 && (p.Frac < points[i-1].Frac || p.Size < points[i-1].Size) {
			return nil, fmt.Errorf("workload: CDF %q not monotone at point %d", name, i)
		}
	}
	//simlint:allow floateq(validates a hand-written config constant that must be the literal 1.0, not a computed value)
	if points[len(points)-1].Frac != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at fraction 1", name)
	}
	d := &CDFDist{points: points, logSize: make([]float64, len(points))}
	for i, p := range points {
		d.logSize[i] = math.Log(float64(p.Size))
	}
	d.mean = d.integrate(meanSteps, math.MaxInt64)
	return d, nil
}

// MustCDF is NewCDF for package-level literals.
func MustCDF(name string, points []CDFPoint) *CDFDist {
	d, err := NewCDF(name, points)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *CDFDist) Mean() float64 { return d.mean }

// The midpoint-rule resolutions of the mean (fine-grained enough that
// sampling means converge to it in tests) and of a truncated mean. Every
// planned arrival rate is computed from these exact sums.
const (
	meanSteps  = 100000
	truncSteps = 20000
)

// integrate returns the midpoint-rule mean of min(quantile(u), max) over
// steps equal slices of [0,1).
func (d *CDFDist) integrate(steps int, max units.Bytes) float64 {
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / float64(steps)
		s := d.quantile(u)
		if s > max {
			s = max
		}
		sum += float64(s)
	}
	return sum / float64(steps)
}

// truncatedMean returns integrate(truncSteps, max), computed once per
// cap. The lock is held across the integration, so concurrent callers
// asking for the same cap wait for one result rather than each
// computing it.
func (d *CDFDist) truncatedMean(max units.Bytes) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.truncMean[max]
	if !ok {
		m = d.integrate(truncSteps, max)
		if d.truncMean == nil {
			d.truncMean = make(map[units.Bytes]float64)
		}
		d.truncMean[max] = m
	}
	return m
}

// quantile returns the interpolated size at fraction u in [0,1).
func (d *CDFDist) quantile(u float64) units.Bytes {
	pts := d.points
	if u <= pts[0].Frac {
		return pts[0].Size
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Frac >= u })
	if i >= len(pts) {
		return pts[len(pts)-1].Size
	}
	lo, hi := pts[i-1], pts[i]
	//simlint:allow floateq(exact guard against dividing by a zero Frac span just below; an epsilon would misroute near-equal anchors)
	if hi.Frac == lo.Frac || hi.Size == lo.Size {
		return hi.Size
	}
	frac := (u - lo.Frac) / (hi.Frac - lo.Frac)
	// Log-linear interpolation in size.
	ls := d.logSize[i-1] + float64(frac*(d.logSize[i]-d.logSize[i-1]))
	s := units.Bytes(math.Exp(ls))
	if s < 1 {
		s = 1
	}
	return s
}

// Sample draws a flow size.
func (d *CDFDist) Sample(rng *eventsim.RNG) units.Bytes {
	return d.quantile(rng.Float64())
}

// WebSearch returns the DCTCP web-search flow-size distribution, the
// heavy-tailed mix where ~30% of flows exceed 1 MB and long flows carry
// ~95% of the bytes (paper §6.2). The table — and its mean, a
// 100 000-step integration — is built once per process and shared by
// every caller, and so is each truncated mean taken over it.
func WebSearch() *CDFDist { return webSearch() }

var webSearch = sync.OnceValue(func() *CDFDist {
	return MustCDF("websearch", []CDFPoint{
		{6 * units.KB, 0.15},
		{13 * units.KB, 0.20},
		{19 * units.KB, 0.30},
		{33 * units.KB, 0.40},
		{53 * units.KB, 0.53},
		{133 * units.KB, 0.60},
		{667 * units.KB, 0.70},
		{1467 * units.KB, 0.80},
		{2107 * units.KB, 0.90},
		{6667 * units.KB, 0.95},
		{20 * units.MB, 0.98},
		{30 * units.MB, 1.00},
	})
})

// DataMining returns the VL2 data-mining distribution: ~80% of flows
// under 10 KB, fewer than 5% over 35 MB, with an extreme elephant tail
// (paper §6.2). The tail is truncated at 1 GB to keep single runs
// bounded; the paper's observation (clear boundary between many tiny
// flows and a few elephants) is preserved. Built once per process, like
// WebSearch.
func DataMining() *CDFDist { return dataMining() }

var dataMining = sync.OnceValue(func() *CDFDist {
	return MustCDF("datamining", []CDFPoint{
		{100 * units.Byte, 0.03},
		{180 * units.Byte, 0.10},
		{250 * units.Byte, 0.20},
		{560 * units.Byte, 0.30},
		{900 * units.Byte, 0.40},
		{1100 * units.Byte, 0.50},
		{60 * units.KB, 0.60},
		{950 * units.KB, 0.70},
		{9100 * units.KB, 0.80},
		{35 * units.MB, 0.95},
		{1000 * units.MB, 1.00},
	})
})

// Uniform returns sizes uniform on [min, max] — e.g. the paper's
// "short flows with random size of less than 100 KB".
type Uniform struct {
	MinSize, MaxSize units.Bytes
}

func (u Uniform) Mean() float64 { return float64(u.MinSize+u.MaxSize) / 2 }

func (u Uniform) Sample(rng *eventsim.RNG) units.Bytes {
	if u.MaxSize <= u.MinSize {
		return u.MinSize
	}
	return u.MinSize + units.Bytes(rng.Int63n(int64(u.MaxSize-u.MinSize+1)))
}

// Fixed always returns the same size (e.g. 10 MB long flows).
type Fixed struct {
	Size units.Bytes
}

func (f Fixed) Mean() float64                      { return float64(f.Size) }
func (f Fixed) Sample(_ *eventsim.RNG) units.Bytes { return f.Size }

// Truncated caps another distribution's samples, keeping large-scale
// runs bounded without changing the body of the distribution.
type Truncated struct {
	Dist SizeDist
	Max  units.Bytes
}

// Mean is the mean capped size, which a poisson workload plans its
// arrival rate from. Over a CDFDist it is a 20 000-step midpoint
// integration of the capped quantile function, computed once per
// distribution and cap and then read from the distribution's memo. Over
// any other distribution it is min(mean, cap): an upper bound on the
// capped mean, exact when no sample exceeds the cap.
func (t Truncated) Mean() float64 {
	if c, ok := t.Dist.(*CDFDist); ok {
		return c.truncatedMean(t.Max)
	}
	m := t.Dist.Mean()
	if m > float64(t.Max) {
		return float64(t.Max)
	}
	return m
}

func (t Truncated) Sample(rng *eventsim.RNG) units.Bytes {
	s := t.Dist.Sample(rng)
	if s > t.Max {
		s = t.Max
	}
	return s
}
