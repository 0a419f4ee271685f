package workload

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// Source yields flows one at a time in non-decreasing Start order, so
// the simulator can schedule arrivals lazily instead of materializing
// a []Flow up front — the O(n) memory term that caps run sizes.
// Next returns the next flow and true, or a zero Flow and false when
// the source is exhausted.
type Source interface {
	Next() (Flow, bool)
}

// SliceSource adapts an already-materialized flow list to Source.
type SliceSource struct {
	flows []Flow
	i     int
}

// NewSliceSource wraps flows (not copied) as a Source.
func NewSliceSource(flows []Flow) *SliceSource {
	return &SliceSource{flows: flows}
}

// Next yields the next flow in slice order.
func (s *SliceSource) Next() (Flow, bool) {
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
// flow's gap, pair, size and deadline in that order.
type poissonSource struct {
	cfg  PoissonConfig
	rng  *eventsim.RNG
	at   units.Time
	left int
}

// Source returns a lazy generator for n flows starting at start.
func (c PoissonConfig) Source(rng *eventsim.RNG, n int, start units.Time) (Source, error) {
	if c.Hosts < 2 {
		return nil, fmt.Errorf("workload: poisson traffic needs >= 2 hosts, got %d", c.Hosts)
	}
	if !(c.Rate > 0) {
		return nil, fmt.Errorf("workload: poisson traffic needs a positive arrival rate, got %v", c.Rate)
	}
	if c.LeafOf != nil {
		// pickPair redraws until src and dst differ in leaf: with every
		// host on one leaf it would never return.
		oneLeaf := true
		for h := 1; h < c.Hosts && oneLeaf; h++ {
			oneLeaf = c.LeafOf(h) == c.LeafOf(0)
		}
		if oneLeaf {
			return nil, fmt.Errorf("workload: cross-leaf poisson traffic needs >= 2 leaves, all %d hosts are on leaf %d", c.Hosts, c.LeafOf(0))
		}
	}
	return &poissonSource{cfg: c, rng: rng, at: start, left: n}, nil
}

// Next draws one flow.
func (p *poissonSource) Next() (Flow, bool) {
	if p.left <= 0 {
		return Flow{}, false
	}
	p.left--
	c := p.cfg
	gap := units.FromSeconds(p.rng.ExpFloat64() / c.Rate)
	p.at += gap
	src, dst := c.pickPair(p.rng)
	size := c.Sizes.Sample(p.rng)
	f := Flow{Src: src, Dst: dst, Size: size, Start: p.at}
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
	// DeadlineBase/DeadlineJitter assign deadlines of base +
	// Intn(jitter) to flows at or below DeadlineOnlyBelow (all flows if
	// zero); no deadlines when jitter is zero.
	DeadlineBase      units.Time
	DeadlineJitter    units.Time
	DeadlineOnlyBelow units.Bytes
}

type interPodSource struct {
	cfg  InterPodConfig
	rng  *eventsim.RNG
	at   units.Time
	left int
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
	return &interPodSource{cfg: c, rng: rng, left: c.Flows}, nil
}

// Next draws one flow: gap, src, dst (redrawn until cross-pod), size,
// deadline.
func (s *interPodSource) Next() (Flow, bool) {
	if s.left <= 0 {
		return Flow{}, false
	}
	s.left--
	c := s.cfg
	s.at += units.Time(s.rng.Intn(int(c.MaxGap)))
	src := s.rng.Intn(c.Hosts)
	dst := s.rng.Intn(c.Hosts)
	for dst/c.PerPod == src/c.PerPod {
		dst = s.rng.Intn(c.Hosts)
	}
	size := c.Sizes.Sample(s.rng)
	f := Flow{Src: src, Dst: dst, Size: size, Start: s.at}
	if c.DeadlineJitter > 0 && (c.DeadlineOnlyBelow == 0 || size <= c.DeadlineOnlyBelow) {
		f.Deadline = s.at + c.DeadlineBase + units.Time(s.rng.Intn(int(c.DeadlineJitter)))
	}
	return f, true
}

// OverrideDeadlines decorates a source, rewriting each flow's deadline
// to start+deadline for flows at or below onlyBelow (all flows if
// zero) and clearing it otherwise — the lazy counterpart of the spec
// layer's deadline override, which never perturbs the underlying draw
// stream.
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
	if o.onlyBelow == 0 || f.Size <= o.onlyBelow {
		f.Deadline = f.Start + o.deadline
	} else {
		f.Deadline = 0
	}
	return f, true
}
