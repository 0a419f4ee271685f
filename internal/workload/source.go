package workload

import (
	"cmp"
	"fmt"
	"slices"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// Source yields flows one at a time in non-decreasing Start order, so
// the simulator can schedule arrivals lazily instead of materializing
// a []Flow up front — the O(n) memory term that caps run sizes. Each
// flow carries its own Index, distinct within the source.
// Next returns the next flow and true, or a zero Flow and false when
// the source is exhausted.
type Source interface {
	Next() (Flow, bool)
}

// Arrivals is the replayable factory of a materialized workload: flow i
// of flows gets Index i, and every call of the factory returns a fresh
// Source yielding them in stable (Start, Index) order. The order is
// sorted once, on a copy; flows itself is not touched.
func Arrivals(flows []Flow) func() Source {
	sorted := make([]Flow, len(flows))
	for i, f := range flows {
		f.Index = i
		sorted[i] = f
	}
	slices.SortStableFunc(sorted, func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) })
	return func() Source { return &sliceSource{flows: sorted} }
}

// sliceSource yields a slice in order.
type sliceSource struct {
	flows []Flow
	i     int
}

func (s *sliceSource) Next() (Flow, bool) {
	if s.i >= len(s.flows) {
		return Flow{}, false
	}
	f := s.flows[s.i]
	s.i++
	return f, true
}

// Collect drains a source into a slice, for a caller that wants the
// whole workload at once.
func Collect(src Source) []Flow {
	var out []Flow
	for {
		f, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// poissonSource yields PoissonConfig's flows lazily, drawing each
// flow's gap, pair, size and deadline in that order; a flow's Index is
// its arrival count.
type poissonSource struct {
	cfg      PoissonConfig
	rng      *eventsim.RNG
	at       units.Time
	n, flows int // drawn so far, and in all
}

// Source returns a lazy generator for n flows, the first arriving one
// exponential gap after time 0.
func (c PoissonConfig) Source(rng *eventsim.RNG, n int) (Source, error) {
	// pickPair redraws until src and dst differ in leaf: with every
	// host on one leaf it would never return.
	if c.PerLeaf < 1 || c.Hosts <= c.PerLeaf {
		return nil, fmt.Errorf("workload: poisson traffic needs >= 2 leaves (%d hosts, %d per leaf)", c.Hosts, c.PerLeaf)
	}
	if !(c.Rate > 0) {
		return nil, fmt.Errorf("workload: poisson traffic needs a positive arrival rate, got %v", c.Rate)
	}
	return &poissonSource{cfg: c, rng: rng, flows: n}, nil
}

// Next draws one flow.
func (p *poissonSource) Next() (Flow, bool) {
	if p.n >= p.flows {
		return Flow{}, false
	}
	c := p.cfg
	gap := units.FromSeconds(p.rng.ExpFloat64() / c.Rate)
	p.at += gap
	src, dst := c.pickPair(p.rng)
	size := c.Sizes.Sample(p.rng)
	f := Flow{Src: src, Dst: dst, Size: size, Start: p.at, Index: p.n}
	p.n++
	if d := c.Deadlines.Sample(p.rng, size); d > 0 {
		f.Deadline = p.at + d
	}
	return f, true
}

// InterPodConfig drives the fat-tree scale experiments: flows between
// hosts in different pods, uniformly-jittered arrivals, optionally
// deadlined.
type InterPodConfig struct {
	// Hosts is the total host count; PerPod how many share a pod (src
	// and dst are redrawn until they differ in pod).
	Hosts  int
	PerPod int
	// Flows is the number of flows to generate.
	Flows int
	Sizes SizeDist
	// MaxGap bounds the uniform arrival gap: each flow starts
	// Intn(MaxGap) after the previous one.
	MaxGap units.Time
	// Deadlines draws each flow's budget after its size.
	Deadlines DeadlineDist
}

// interPodSource yields InterPodConfig's flows lazily; a flow's Index
// is its arrival count.
type interPodSource struct {
	cfg InterPodConfig
	rng *eventsim.RNG
	at  units.Time
	n   int // flows drawn, of cfg.Flows
}

// Source returns a lazy generator for the configured flows.
func (c InterPodConfig) Source(rng *eventsim.RNG) (Source, error) {
	if c.Flows <= 0 {
		return nil, fmt.Errorf("workload: interpod traffic needs a positive flow count, got %d", c.Flows)
	}
	if c.PerPod <= 0 || c.Hosts <= c.PerPod {
		return nil, fmt.Errorf("workload: interpod traffic needs >= 2 pods (%d hosts, %d per pod)", c.Hosts, c.PerPod)
	}
	if c.MaxGap <= 0 {
		return nil, fmt.Errorf("workload: interpod traffic needs a positive max arrival gap")
	}
	return &interPodSource{cfg: c, rng: rng}, nil
}

// Next draws one flow: gap, src, dst (redrawn until cross-pod), size,
// deadline.
func (s *interPodSource) Next() (Flow, bool) {
	if s.n >= s.cfg.Flows {
		return Flow{}, false
	}
	c := s.cfg
	s.at += units.Time(s.rng.Int63n(int64(c.MaxGap)))
	src := s.rng.Intn(c.Hosts)
	dst := s.rng.Intn(c.Hosts)
	for dst/c.PerPod == src/c.PerPod {
		dst = s.rng.Intn(c.Hosts)
	}
	size := c.Sizes.Sample(s.rng)
	f := Flow{Src: src, Dst: dst, Size: size, Start: s.at, Index: s.n}
	s.n++
	if d := c.Deadlines.Sample(s.rng, size); d > 0 {
		f.Deadline = s.at + d
	}
	return f, true
}

// OverrideDeadlines decorates a source, rewriting each flow's deadline
// to start+deadline for flows at or below onlyBelow and clearing it
// otherwise — the lazy counterpart of the spec layer's deadline
// override, which never perturbs the underlying draw stream.
func OverrideDeadlines(src Source, deadline units.Time, onlyBelow units.Bytes) Source {
	return &overrideSource{src: src, deadline: deadline, onlyBelow: onlyBelow}
}

type overrideSource struct {
	src       Source
	deadline  units.Time
	onlyBelow units.Bytes
}

func (o *overrideSource) Next() (Flow, bool) {
	f, ok := o.src.Next()
	if !ok {
		return Flow{}, false
	}
	if f.Size <= o.onlyBelow {
		f.Deadline = f.Start + o.deadline
	} else {
		f.Deadline = 0
	}
	return f, true
}
