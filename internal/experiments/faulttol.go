package experiments

import (
	"fmt"
	"math"

	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// The paper's §7 asymmetry study (Fig. 16–17) degrades links statically
// before the run starts. FigF1 and FigF2 extend it to the dynamic case:
// links fail and recover mid-traffic, which is when a load balancer's
// path-condition detection actually earns its keep. Both run on the §7
// testbed fabric (2 leaves x 10 spines, 20 Mbps, 1 ms links) and use
// the deterministic schedule-driven injector of internal/faults.

// figF1 failure window: both overridden Fig. 16/17 links — (leaf0,
// spine2) and (leaf0, spine7) — go down at 2.5 s and recover at 5.5 s,
// while short flows keep arriving over an 8 s window against 4
// established 15 MB long flows.
const (
	figF1FailAt    = 2500 * units.Millisecond
	figF1RecoverAt = 5500 * units.Millisecond
	figF1Window    = 8 * units.Second
)

// figF1Env is the testbed with shorts spread uniformly over the whole
// observation window (so every phase — before, during, after the
// failure — sees fresh arrivals) against 4 long flows established at
// t=0. Two mix groups drawn in order from the shared workload RNG: the
// longs first, then the jittered shorts.
func figF1Env(o Options) env {
	e := testbedEnv(0, 0)
	e.workload = spec.Workload{
		Kind: "mix",
		Groups: []spec.MixGroup{
			{
				Longs:     4,
				LongSizes: &spec.SizeDist{Kind: "fixed", Size: "15MB"},
			},
			{
				Shorts:        figF1Shorts(o),
				ShortSizes:    testbedShortSizes(),
				ArrivalJitter: spec.Dur(figF1Window),
			},
		},
		// The longs are above the deadlines' size bound, so they draw
		// none.
		Deadlines: testbedDeadlines(),
	}
	return e
}

// figF1Shorts scales the short-flow count off Options.FlowsPerRun
// (which targets the 1 Gbps large-scale runs) to something the 20 Mbps
// testbed fabric can drain inside the window.
func figF1Shorts(o Options) int {
	n := o.FlowsPerRun / 4
	if n < 20 {
		n = 20
	}
	if n > 300 {
		n = 300
	}
	return n
}

// figF1Specs builds the fail→recover batch: every testbed scheme under
// the fault schedule, with the time series enabled. The 250 ms bucket
// divides figF1a's 500 ms start-time buckets and every phase boundary
// of figF1c, which both read Result.ShortFCTByStart. Shared with the
// golden-spec tests.
func figF1Specs(o Options) ([]string, []spec.Spec) {
	e := figF1Env(o)
	failAt, recoverAt := spec.Dur(figF1FailAt), spec.Dur(figF1RecoverAt)
	sched := []spec.Fault{
		{At: failAt, Leaf: 0, Spine: 2, Op: "down"},
		{At: failAt, Leaf: 0, Spine: 7, Op: "down"},
		{At: recoverAt, Leaf: 0, Spine: 2, Op: "restore"},
		{At: recoverAt, Leaf: 0, Spine: 7, Op: "restore"},
	}
	var specs []spec.Spec
	var order []string
	for _, s := range testbedSchemes() {
		order = append(order, s.label())
		sp := e.spec(s, "figF1-"+s.label(), o.Seed)
		sp.Faults = sched
		sp.Outputs.TimeBucket = spec.Dur(250 * units.Millisecond)
		specs = append(specs, sp)
	}
	return order, specs
}

// FigF1 runs the fail→recover experiment: two of ten uplinks of leaf 0
// go down mid-run and come back 3 s later.
//
//   - figF1a: short-flow AFCT bucketed by flow start time — the
//     recovery transient, per scheme.
//   - figF1b: aggregate long-flow goodput over time.
//   - figF1c: short-flow AFCT in the pre-failure, failure and
//     post-recovery windows, as bars per scheme.
func FigF1(o Options) ([]Figure, error) {
	order, specs := figF1Specs(o)
	results, err := o.runSpecs("figF1", specs)
	if err != nil {
		return nil, err
	}

	afct := Figure{ID: "figF1a", Title: "Short-flow AFCT by start time through fail/recover",
		XLabel: "flow start time (s)", YLabel: "AFCT (s)"}
	tput := Figure{ID: "figF1b", Title: "Long-flow goodput through fail/recover",
		XLabel: "time (s)", YLabel: "aggregate goodput (Gbps)"}
	bars := Figure{ID: "figF1c", Title: "Short-flow AFCT before / during / after the failure",
		XLabel: "phase", YLabel: "AFCT (s)"}
	for i, res := range results {
		name := order[i]
		afct.Series = append(afct.Series, stats.Series{
			Name: name, Points: afctByStartTime(res, 500*units.Millisecond)})
		tp := stats.Series{Name: name}
		for _, p := range res.LongGoodputBytes.Rates() {
			tp.Add(p.X, p.Y*8/1e9) // bytes/s -> Gbps
		}
		tput.Series = append(tput.Series, tp)
		for _, ph := range figF1Phases(res) {
			bars.Bars = append(bars.Bars, Bar{
				Label: fmt.Sprintf("%s %s", name, ph.name),
				Value: ph.afct.Seconds(),
			})
		}
	}
	return []Figure{afct, tput, bars}, nil
}

// afctByStartTime buckets finished short flows by start time and
// returns (bucket midpoint s, mean FCT s) points. bucket must be a
// multiple of the run's time bucket.
func afctByStartTime(res *sim.Result, bucket units.Time) []stats.Point {
	var out []stats.Point
	by, w := res.ShortFCTByStart, bucket.Seconds()
	// The last window is the one holding the last bucket's midpoint.
	sums := by.Sums()
	for i := 0; len(sums) > 0 && float64(i)*w < sums[len(sums)-1].X; i++ {
		if n, sum := by.Window(float64(i)*w, float64(i+1)*w); n > 0 {
			// One rounding of the exact mean: sum and n·1 s are exact in
			// a float64.
			out = append(out, stats.Point{X: (float64(i) + 0.5) * w, Y: sum / (float64(n) * float64(units.Second))})
		}
	}
	return out
}

// phase is one failure-relative window of a figF1 run.
type phase struct {
	name string
	afct units.Time
}

// figF1Phases slices short-flow AFCT by where the flow STARTED
// relative to the failure window. Flows straddling a boundary are
// charged to the phase they started in — the paper's testbed figures
// use the same convention for arrival-windowed metrics.
func figF1Phases(res *sim.Result) []phase {
	windows := []struct {
		name     string
		from, to units.Time
	}{
		{"pre", 0, figF1FailAt},
		{"fail", figF1FailAt, figF1RecoverAt},
		{"post", figF1RecoverAt, figF1Window},
	}
	out := make([]phase, 0, len(windows))
	for _, w := range windows {
		n, sum := res.ShortFCTByStart.Window(w.from.Seconds(), w.to.Seconds())
		p := phase{name: w.name}
		if n > 0 {
			p.afct = units.Time(sum) / units.Time(n)
		}
		out = append(out, p)
	}
	return out
}

// FigF2 sweeps link-flap frequency: one uplink of leaf 0 flaps with a
// 50% duty cycle at increasing frequency while the testbed workload
// runs, and the panels report short AFCT and long goodput normalized
// to TLB (the Fig. 13–17 presentation). The workload is figF1's
// spread-arrival mix — the standard testbed mix front-loads its shorts
// into the first 500 ms, before the first flap would hit anything.
func FigF2(o Options) ([]Figure, error) {
	xs := trim(o, []float64{4, 2, 1, 0.5}) // flap period, seconds
	return testbedSweep(o, "figF2", "flap period on 1 link (s)", xs,
		func(float64) env { return figF1Env(o) },
		func(x float64) []spec.Fault {
			// Down for half a period, up for the other half, from t = 1 s
			// until the cycles cover the arrival window; the last entry is
			// a restore, so the link ends healthy.
			var faults []spec.Fault
			half := units.FromSeconds(x) / 2
			cycles := int(math.Ceil(figF1Window.Seconds() / x))
			at := units.Second
			for c := 0; c < cycles; c++ {
				faults = append(faults,
					spec.Fault{At: spec.Dur(at), Leaf: 0, Spine: 2, Op: "down"},
					spec.Fault{At: spec.Dur(at + half), Leaf: 0, Spine: 2, Op: "restore"})
				at += 2 * half
			}
			return faults
		})
}
