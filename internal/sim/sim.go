// Package sim is the experiment runner: it wires a topology, transport
// endpoints, a load-balancing scheme and a workload into one
// discrete-event simulation, runs it to a stop criterion, and returns
// the measurements every figure of the paper is reduced from.
package sim

import (
	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// Scenario fully describes one simulation run.
type Scenario struct {
	Name string
	// Topology describes the network, leaf-spine or fat-tree; the run
	// builds it with topology.New.
	Topology topology.Config
	// Transport is what the run chooses about its endpoints; the zero
	// value is the paper's DCTCP.
	Transport transport.Config
	// Balancer instantiates the scheme under test at each switch that
	// has uplinks.
	Balancer lb.Factory
	// SchemeName labels results (balancers are per-switch instances,
	// so the factory itself carries no name).
	SchemeName string
	Seed       uint64

	// FlowSourceNew supplies the workload as a replayable factory:
	// every call must return a fresh Source that yields the identical
	// flows in non-decreasing Start order, each numbered by its Index
	// (its FlowID.Port), so one Scenario value can be run more than
	// once; workload.Arrivals gives a slice this form. The runner holds
	// one arrival ahead of the clock in the event queue, so neither
	// set-up nor the queue grows with the total flow count, nor, with a
	// lazy source, does the workload.
	FlowSourceNew func() workload.Source

	// Flows is rejected by validation when non-empty: a workload is
	// FlowSourceNew.
	//
	// Deprecated: no run reads it. It survives only because bench/ still
	// reads it, and goes with Shards.
	Flows []workload.Flow

	// Shards is accepted and ignored: every run is one engine.
	//
	// Deprecated: the sharded runner was removed in PR 16. The field
	// survives only because the benchmark's fattree-mice-sharded
	// workload still sets run.shards and bench/trace.go reads it; it is
	// deleted when that workload is.
	Shards int

	// MaxTime hard-stops the run; 0 means DefaultMaxTime. A run
	// ends at its last completion or at MaxTime, whichever comes first.
	MaxTime units.Time

	// TimeBucket, when positive, is the width of the bucketed
	// instantaneous series (Fig. 8/9) and of the short-flow FCTs by
	// start time; zero collects neither.
	TimeBucket units.Time

	// Replicate enables RepFlow-style short-flow replication (Xu & Li,
	// 2014 — discussed in the paper's §8): each flow at or below
	// ShortThreshold is opened as ReplicaCopies copies with different
	// five-tuples (so per-flow schemes hash them onto different paths),
	// and the flow's completion time is the FIRST copy to finish. The
	// losing copies run to completion in the background, which is
	// RepFlow's documented bandwidth cost.
	Replicate bool

	// Faults is the run's link-fault schedule (links down and restored
	// at scheduled sim times; see internal/faults). Empty injects
	// nothing. It addresses links by (leaf, spine) pair, so Topology
	// must be a leaf-spine (Fabric.LinkPorts rejects a fat-tree) and
	// the network unwrapped (a BuildNetwork wrapper has no links to
	// resolve).
	Faults faults.Schedule

	// BuildNetwork is the wrapping seam: when set, the run drives
	// traffic through the network it returns instead of calling
	// topology.New(Topology) itself, so an instrumented caller can
	// build that same fabric and put a wrapper around it, its balancers
	// or its deliver callback (bench/trace.go does; nothing else in the
	// tree sets it). It is not how a scenario chooses a topology —
	// Topology says which, and the run reads what it derives (the
	// teardown lag) from Topology, not from the network built.
	BuildNetwork func(*eventsim.Sim, lb.Factory, *eventsim.RNG, topology.DeliverFunc) (topology.Network, error)
}

// ShortThreshold classifies flows for result aggregation: a flow of at
// most this many bytes is short (TLB's default classifier boundary).
const ShortThreshold = 100 * units.KB

// DefaultMaxTime is the run length of a scenario that sets no MaxTime.
const DefaultMaxTime = 60 * units.Second

// ReplicaCopies is how many copies a replicated flow opens (RepFlow's
// two: the flow and one replica).
const ReplicaCopies = 2

func (sc *Scenario) withDefaults() {
	if sc.MaxTime <= 0 {
		sc.MaxTime = DefaultMaxTime
	}
	if sc.SchemeName == "" {
		sc.SchemeName = "unnamed"
	}
}

// PortSnapshot records one fabric port's totals at the end of a run.
type PortSnapshot struct {
	Label    string
	BusyTime units.Time
	Queue    netem.QueueStats
	Link     netem.LinkConfig
}

// Result holds everything measured in one run.
type Result struct {
	Scenario string
	Scheme   string
	// Stream is the per-class aggregate of the run's flow measurements:
	// always set, folded once per flow, and what every accessor in
	// result.go reads.
	Stream *StreamAgg
	// Deprecated: no run sets Flows: a run keeps no per-flow records.
	// It survives only because bench/ still reads it, and goes with
	// Scenario.Flows.
	Flows   []*transport.FlowStats
	EndTime units.Time
	Drops   int64
	// FaultDrops counts packets dropped at down ports anywhere in the
	// fabric (admission drops of the fault injector, not buffer drops).
	FaultDrops int64
	// Faults is the run's fault timeline: the events of
	// Scenario.Faults the run reached (At <= EndTime), in the order they
	// were applied (faults.Schedule.Sorted). Fault events are armed
	// before the workload, so at any instant they fire before a
	// completion that could end the run.
	Faults []faults.Event

	// Uplinks snapshots every leaf uplink port (the equal-cost paths).
	Uplinks []PortSnapshot

	// Events is how many engine events the run executed, and PacketHops
	// how many packets left a port queue for its wire (the sum of every
	// port's QueueStats.Dequeued): the run's cost in the simulator's
	// own units, deterministic like every other field.
	Events     uint64
	PacketHops int64

	// ShortQueueLen counts, per received short-flow data packet up to
	// its receiver's freeze, the largest queue it saw at any hop (Fig.
	// 3a), every replicated copy's packets included. Always set.
	ShortQueueLen *stats.Histogram

	// Instantaneous series (when TimeBucket is set): X in seconds. The
	// receiver series add in delivery order, every replicated copy's
	// packets included; goodput counts a replicated flow once, at its
	// win.
	ShortQueueDelayUs *stats.TimeSeries // mean queueing delay, µs
	ShortOOORatio     *stats.TimeSeries // mean out-of-order indicator
	LongOOORatio      *stats.TimeSeries
	ShortGoodputBytes *stats.TimeSeries // payload bytes per bucket
	LongGoodputBytes  *stats.TimeSeries
	// ShortFCTByStart adds each completed short flow's FCT in
	// nanoseconds at its start time (Fig. F1): integer sums, exact in a
	// float64 whatever order the flows completed in.
	ShortFCTByStart *stats.TimeSeries
}

// Run executes the scenario and returns its measurements. It is the
// observer-less session path, equivalent to
// NewSession(sc, SessionOptions{}).Run(); use a Session directly for
// a progress stream (see session.go, observer.go).
func Run(sc Scenario) (*Result, error) {
	return NewSession(sc, SessionOptions{}).Run()
}
