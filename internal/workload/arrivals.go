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
// flows arrive as a Poisson process between random distinct host
// pairs, sized from a distribution, at a target load on the host links.
type PoissonConfig struct {
	Hosts int
	Sizes SizeDist
	// Load is the target utilization of each host's access link
	// (0.1–0.8 in the paper's sweeps).
	Load float64
	// HostBandwidth is the access-link rate the load is relative to.
	HostBandwidth units.Bandwidth
	// RateOverride, when > 0, sets the flow arrival rate (flows per
	// second) directly, bypassing the Load/HostBandwidth computation —
	// used when load is defined against fabric capacity instead.
	RateOverride float64
	Deadlines    DeadlineDist
	// CrossLeafOnly, with LeafOf set, forces src and dst onto
	// different leaves so every flow crosses the fabric.
	CrossLeafOnly bool
	LeafOf        func(host int) int
}

// Rate returns the aggregate flow arrival rate (flows/second) implied
// by the target load: load * C * hosts / mean size.
func (c PoissonConfig) Rate() float64 {
	if c.RateOverride > 0 {
		return c.RateOverride
	}
	if c.Sizes.Mean() <= 0 {
		return 0
	}
	return c.Load * c.HostBandwidth.BytesPerSecond() * float64(c.Hosts) / c.Sizes.Mean()
}

// Generate produces n flows with Poisson interarrivals starting at
// time start. It drains the lazy Source, so eager and streaming
// callers see one draw sequence by construction.
func (c PoissonConfig) Generate(rng *eventsim.RNG, n int, start units.Time) ([]Flow, error) {
	src, err := c.Source(rng, n, start)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}

func (c PoissonConfig) pickPair(rng *eventsim.RNG) (src, dst int) {
	for {
		src = rng.Intn(c.Hosts)
		dst = rng.Intn(c.Hosts)
		if src == dst {
			continue
		}
		if c.CrossLeafOnly && c.LeafOf != nil && c.LeafOf(src) == c.LeafOf(dst) {
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
