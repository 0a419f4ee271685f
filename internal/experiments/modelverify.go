package experiments

import (
	"fmt"
	"math"

	"tlb/internal/core"
	"tlb/internal/model"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// fig7Env is the §4.2 verification setup: 512-packet buffers, 3 long +
// 100 short flows, X = 70 KB, D = 10 ms.
type fig7Env struct {
	basicEnv
	deadline units.Time
}

func newFig7Env(shorts, longs, paths int, deadline units.Time) fig7Env {
	env := newBasicEnv(512, shorts, longs)
	env.topo.Spines = paths
	if paths > env.topo.HostsPerLeaf {
		env.topo.HostsPerLeaf = paths
	}
	return fig7Env{basicEnv: env, deadline: deadline}
}

// modelParams are the queueing model's inputs for this environment:
// those of the TLB its runs build (registry defaults in the basic
// environment's fabric and transport, D stated), with the paper's
// literal Eq. 9 demand, which is what Fig. 7's numeric curves plot.
func (e fig7Env) modelParams() (model.Params, error) {
	cfg, err := core.NewConfig(
		spec.Params{"deadline": pDur(e.deadline), "uncappedLongDemand": true},
		spec.Env(e.topo))
	return cfg.Model(e.topo.Spines, e.shorts, e.longs), err
}

// qthSpec builds the run measuring the short-flow deadline-miss
// ratio under a fixed switching threshold qth. label keys the scenario
// to its sweep point for progress lines and error reports.
func (e fig7Env) qthSpec(label string, qth int, seed uint64) spec.Spec {
	s := Scheme{
		Name:   "tlb",
		Label:  fmt.Sprintf("%s-q%d", label, qth),
		Params: spec.Params{"fixedQTh": qth, "deadline": pDur(e.deadline)},
	}
	sp := e.spec(s, seed)
	// Override deadlines to the fixed model deadline D so the
	// measurement matches the model's question ("do shorts finish
	// within D").
	sp.Workload.DeadlineOverride = &spec.DeadlineOverride{
		Deadline:  spec.Dur(e.deadline),
		OnlyBelow: spec.Sz(100 * units.KB),
	}
	return sp
}

// qthSearchTol is the residual miss ratio the search tolerates: a
// handful of unlucky flows (hash collisions on the reverse path, ACK
// losses) would otherwise absorb the whole search range.
const qthSearchTol = 0.02

// qthSearch finds the smallest fixed switching threshold under which a
// run misses (almost) no short-flow deadlines — the empirical
// counterpart of Eq. 9, a binary search over [0, buffer] exploiting
// that more stickiness (larger q_th) only helps shorts.
//
// The search is expressed as a state machine (propose next probe,
// observe its miss ratio) so that Fig7 can run all sweep points'
// searches in lockstep rounds through the shared sweep runner: each
// search's probe sequence is exactly the serial binary search's, so
// batched and serial execution produce identical thresholds — only
// independent searches overlap in time.
type qthSearch struct {
	env   fig7Env
	label string
	seed  uint64

	phase   int // 0: probe max; 1: probe 0; 2: bisect; 3: done
	lo, hi  int
	probe   int // the pending threshold when phase < 3
	result  int
	verbose func(format string, args ...any)
}

func newQthSearch(env fig7Env, label string, seed uint64, verbose func(string, ...any)) *qthSearch {
	return &qthSearch{
		env: env, label: label, seed: seed,
		probe: env.topo.Queue.Capacity, verbose: verbose,
	}
}

func (q *qthSearch) done() bool { return q.phase == 3 }

// spec returns the run for the pending probe.
func (q *qthSearch) spec() spec.Spec {
	return q.env.qthSpec(q.label, q.probe, q.seed)
}

// observe consumes the pending probe's miss ratio and advances the
// search.
func (q *qthSearch) observe(miss float64) {
	max := q.env.topo.Queue.Capacity
	switch q.phase {
	case 0: // full stickiness
		if miss > qthSearchTol {
			q.finish(max) // even full stickiness cannot meet D
			return
		}
		q.phase, q.probe = 1, 0
	case 1: // no stickiness
		if miss <= qthSearchTol {
			q.finish(0)
			return
		}
		// Invariant: hi satisfies, lo fails.
		q.lo, q.hi = 0, max
		q.bisect()
	case 2:
		q.verbose("fig7 %s: qth=%d miss=%.3f", q.label, q.probe, miss)
		if miss <= qthSearchTol {
			q.hi = q.probe
		} else {
			q.lo = q.probe
		}
		q.bisect()
	}
}

func (q *qthSearch) bisect() {
	if q.lo+1 >= q.hi {
		q.finish(q.hi)
		return
	}
	q.phase, q.probe = 2, (q.lo+q.hi)/2
}

func (q *qthSearch) finish(result int) { q.result, q.phase = result, 3 }

// Fig7 reproduces the §4.2 model verification: the minimum switching
// threshold q_th, numeric (Eq. 9) versus simulated, swept over the
// number of short flows (7a), long flows (7b), paths (7c) and the
// deadline (7d). All sweep points' threshold searches advance in
// lockstep: each round batches every active search's next probe
// through the shared runner.
func Fig7(o Options) ([]Figure, error) {
	defaultDeadline := 10 * units.Millisecond

	type sweep struct {
		id, title, xlabel string
		xs                []float64
		env               func(x float64) fig7Env
	}
	sweeps := []sweep{
		{"fig7a", "q_th vs number of short flows", "short flows",
			[]float64{20, 40, 60, 80, 100},
			func(x float64) fig7Env { return newFig7Env(int(x), 3, 15, defaultDeadline) }},
		{"fig7b", "q_th vs number of long flows", "long flows",
			[]float64{1, 2, 3, 4, 5},
			func(x float64) fig7Env { return newFig7Env(100, int(x), 15, defaultDeadline) }},
		{"fig7c", "q_th vs number of paths", "paths",
			[]float64{10, 15, 20, 25, 30},
			func(x float64) fig7Env { return newFig7Env(100, 3, int(x), defaultDeadline) }},
		{"fig7d", "q_th vs deadline", "deadline (ms)",
			[]float64{5, 10, 15, 20, 25},
			func(x float64) fig7Env {
				return newFig7Env(100, 3, 15, units.Time(x)*units.Millisecond)
			}},
	}

	// One search per (sweep, x) point, plus the numeric curve computed
	// up front.
	type point struct {
		sweepIdx int
		x        float64
		search   *qthSearch
	}
	var points []point
	numeric := make([]stats.Series, len(sweeps))
	for si, sw := range sweeps {
		numeric[si] = stats.Series{Name: "model"}
		for _, x := range trim(o, sw.xs) {
			env := sw.env(x)
			mp, err := env.modelParams()
			if err != nil {
				return nil, fmt.Errorf("fig7: %w", err)
			}
			q := mp.QTh()
			if math.IsInf(q, 1) {
				q = float64(env.topo.Queue.Capacity)
			}
			numeric[si].Add(x, q)
			label := fmt.Sprintf("%s-x%v", sw.id, x)
			points = append(points, point{
				sweepIdx: si, x: x,
				search: newQthSearch(env, label, o.Seed, o.logf),
			})
		}
	}

	// Lockstep rounds: batch every active search's pending probe.
	for round := 1; ; round++ {
		var specs []spec.Spec
		var owner []int // batch position -> points index
		for pi := range points {
			if !points[pi].search.done() {
				specs = append(specs, points[pi].search.spec())
				owner = append(owner, pi)
			}
		}
		if len(specs) == 0 {
			break
		}
		o.logf("fig7: search round %d, %d active probes", round, len(specs))
		results, err := o.runSpecs("fig7", specs)
		if err != nil {
			return nil, err
		}
		for k, res := range results {
			points[owner[k]].search.observe(res.DeadlineMissRatio(sim.ShortFlows))
		}
	}

	var figs []Figure
	for si, sw := range sweeps {
		simulated := stats.Series{Name: "simulation"}
		for _, p := range points {
			if p.sweepIdx == si {
				simulated.Add(p.x, float64(p.search.result))
			}
		}
		figs = append(figs, Figure{
			ID: sw.id, Title: sw.title, XLabel: sw.xlabel,
			YLabel: "min q_th (packets)",
			Series: []stats.Series{numeric[si], simulated},
		})
	}
	return figs, nil
}
