package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzQuantileSketch drives the quantile sketch with arbitrary
// streams: each 9-byte chunk is a tag byte, ignored (it keeps the
// checked-in corpus's layout), plus a float64 observation (non-finite
// ones must be ignored). It checks the contracts the streaming stats
// mode relies on:
//
//   - no panics on any stream;
//   - for positive data, quantiles stay within the documented alpha
//     bound of the exact bracketing order statistics;
//   - Quantile is monotone non-decreasing in q and inside [min, max].
func FuzzQuantileSketch(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for i, v := range vals {
			b = append(b, byte(i))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1.0, 2.5, 0.001, 2.5))
	f.Add(seed(0.0, -1.0, 1e300))
	f.Add(seed(1e-12, 1e12, 7.25, 7.25, 7.25, 1e-300))
	f.Fuzz(func(t *testing.T, data []byte) {
		const alpha = SketchAlpha
		sk := NewQuantileSketch()
		var xs []float64
		allPositive := true
		for len(data) >= 9 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			sk.Add(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
			if v <= 0 {
				allPositive = false
			}
		}
		if sk.N() != int64(len(xs)) {
			t.Fatalf("sketch n=%d, want the %d finite observations", sk.N(), len(xs))
		}
		if len(xs) == 0 {
			if sk.Quantile(0.5) != 0 {
				t.Fatal("empty sketch quantile not 0")
			}
			return
		}
		sort.Float64s(xs)
		lo, hi := xs[0], xs[len(xs)-1]
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			est := sk.Quantile(q)
			if est < prev {
				t.Fatalf("Quantile not monotone: q=%v gave %v after %v", q, est, prev)
			}
			prev = est
			if est < lo || est > hi {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, est, lo, hi)
			}
			if allPositive && !sk.Collapsed() {
				rank := q * float64(len(xs)-1)
				bLo := xs[int(rank)]
				bHi := xs[int(math.Ceil(rank))]
				if est < bLo*(1-alpha)-1e-12 || est > bHi*(1+alpha)+1e-12 {
					t.Fatalf("q=%v: %v outside [%v, %v]·(1±%v)", q, est, bLo, bHi, alpha)
				}
			}
		}
	})
}

// FuzzQuantiles feeds arbitrary float64 samples (8 input bytes each,
// non-finite values skipped) to Sample and checks the estimator
// contract the experiments rely on: Percentile(p) lies within
// [min, max] of the data, is monotone non-decreasing in p, and hits
// min and max exactly at 0 and 100.
func FuzzQuantiles(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1.0, 2.5, -3.0, 2.5))
	f.Add(seed(0.0))
	f.Add(seed(1e-12, 1e12, -1e12, 7.25, 7.25, 7.25))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if s.N() == 0 {
			return
		}

		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			q := s.Percentile(p)
			if q < lo || q > hi {
				t.Fatalf("Percentile(%v) = %v outside data range [%v, %v]", p, q, lo, hi)
			}
			if q < prev {
				t.Fatalf("Percentile not monotone: p=%v gave %v after %v", p, q, prev)
			}
			prev = q
		}
		if got := s.Percentile(0); got != lo {
			t.Fatalf("Percentile(0) = %v, want min %v", got, lo)
		}
		if got := s.Percentile(100); got != hi {
			t.Fatalf("Percentile(100) = %v, want max %v", got, hi)
		}
	})
}
