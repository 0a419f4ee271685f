package workload

import (
	"fmt"
	"slices"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// Flow is one generated flow: who talks to whom, how much, by when.
type Flow struct {
	Src, Dst int
	Size     units.Bytes
	// Start is the absolute arrival time.
	Start units.Time
	// Deadline is the absolute completion deadline, or 0 if none.
	Deadline units.Time
}

// DeadlineDist assigns completion budgets to flows.
type DeadlineDist struct {
	// Min/Max bound the uniform deadline range ([5ms, 25ms] in the
	// paper); both zero means no deadlines.
	Min, Max units.Time
	// OnlyBelow restricts deadlines to flows at or below this size
	// (the paper gives deadlines to short flows only); zero applies
	// deadlines to every flow.
	OnlyBelow units.Bytes
}

// Sample draws a relative deadline for a flow of the given size, or 0.
func (d DeadlineDist) Sample(rng *eventsim.RNG, size units.Bytes) units.Time {
	if d.Max <= 0 {
		return 0
	}
	if d.OnlyBelow > 0 && size > d.OnlyBelow {
		return 0
	}
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + units.Time(rng.Intn(int(d.Max-d.Min+1)))
}

// PoissonConfig drives the large-scale experiments' open-loop traffic:
// flows arrive as a Poisson process at a fixed rate between random
// distinct host pairs, sized from a distribution.
type PoissonConfig struct {
	Hosts int
	Sizes SizeDist
	// Rate is the aggregate flow arrival rate, in flows per second (the
	// spec layer derives it from a target load on the fabric).
	Rate      float64
	Deadlines DeadlineDist
	// LeafOf, when set, maps a host to its leaf, and src and dst are
	// drawn on different leaves so every flow crosses the fabric; nil
	// means any distinct pair.
	LeafOf func(host int) int
}

func (c PoissonConfig) pickPair(rng *eventsim.RNG) (src, dst int) {
	for {
		src = rng.Intn(c.Hosts)
		dst = rng.Intn(c.Hosts)
		if src == dst {
			continue
		}
		if c.LeafOf != nil && c.LeafOf(src) == c.LeafOf(dst) {
			continue
		}
		return src, dst
	}
}

// StaticMix builds the motivation/model-verification traffic: a fixed
// number of short and long flows between distinct sender/receiver
// pairs, all arriving within a small jitter window so they contend.
type StaticMix struct {
	// ShortFlows and LongFlows count each class.
	ShortFlows, LongFlows int
	// ShortSizes and LongSizes sample each class (paper: uniform
	// <100 KB shorts, >10 MB longs).
	ShortSizes, LongSizes SizeDist
	// Senders and Receivers are the host index ranges to draw pairs
	// from (src from Senders, dst from Receivers).
	Senders, Receivers []int
	// ArrivalJitter spreads starts uniformly over [0, ArrivalJitter].
	ArrivalJitter units.Time
	Deadlines     DeadlineDist
}

// Generate materializes the mix.
func (m StaticMix) Generate(rng *eventsim.RNG, start units.Time) ([]Flow, error) {
	if len(m.Senders) == 0 || len(m.Receivers) == 0 {
		return nil, fmt.Errorf("workload: static mix needs senders and receivers")
	}
	// src and dst are drawn independently, so a host on both sides could
	// be paired with itself.
	for _, h := range m.Receivers {
		if slices.Contains(m.Senders, h) {
			return nil, fmt.Errorf("workload: static mix host %d is both a sender and a receiver", h)
		}
	}
	flows := make([]Flow, 0, m.ShortFlows+m.LongFlows)
	add := func(n int, sizes SizeDist) {
		for i := 0; i < n; i++ {
			src := m.Senders[rng.Intn(len(m.Senders))]
			dst := m.Receivers[rng.Intn(len(m.Receivers))]
			at := start
			if m.ArrivalJitter > 0 {
				at += units.Time(rng.Intn(int(m.ArrivalJitter) + 1))
			}
			size := sizes.Sample(rng)
			f := Flow{Src: src, Dst: dst, Size: size, Start: at}
			if d := m.Deadlines.Sample(rng, size); d > 0 {
				f.Deadline = at + d
			}
			flows = append(flows, f)
		}
	}
	// Long flows first so they are established when shorts arrive,
	// matching the paper's motivating scenario.
	add(m.LongFlows, m.LongSizes)
	add(m.ShortFlows, m.ShortSizes)
	return flows, nil
}
