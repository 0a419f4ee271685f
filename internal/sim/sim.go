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

	// Flows is the workload as a slice, absolute-timed and in any order:
	// a flow's index (its FlowID.Port) is its position, and flows arrive
	// in stable (Start, index) order. Endpoints are checked before the
	// run starts.
	Flows []workload.Flow

	// FlowSourceNew, when set, supplies the workload instead of Flows
	// (setting both is an error), as a replayable factory: every call
	// must return a fresh Source that yields the identical flow sequence
	// (the compiled workloads are pure functions of spec and seed, so
	// this is their natural form), which lets one Scenario value be run
	// more than once. Flows must arrive in non-decreasing Start order; a
	// flow's index is its arrival count. Either way the runner holds one
	// arrival ahead of the clock in the event queue, so neither set-up
	// nor the queue grows with the total flow count — with a source, nor
	// does the workload.
	FlowSourceNew func() workload.Source

	// Shards is accepted and ignored: every run is one engine.
	//
	// Deprecated: the sharded runner was removed in PR 16. The field
	// survives only because the benchmark's fattree-mice-sharded
	// workload still sets run.shards and bench/trace.go reads it; it is
	// deleted when that workload is.
	Shards int

	// StreamStats means "do not retain records": every run folds each
	// flow record into the fixed-size per-class aggregate
	// (Result.Stream) exactly once; this flag additionally releases the
	// record at completion instead of keeping it in Result.Flows — O(1)
	// memory per flow. What goes with the records: Result.Each and
	// FCTSample see nothing, and FCT percentiles come from the quantile
	// sketch and carry its relative-error bound
	// (stats.DefaultSketchAlpha). Every other metric — the time series
	// and the queue-length histogram included, which fold as they happen
	// — is the same number either way, and the flag decides nothing else.
	// Incompatible with Replication, whose racing copies need retained
	// records.
	StreamStats bool

	// MaxTime hard-stops the run; 0 means run until all flows finish.
	MaxTime units.Time
	// StopWhenDone ends the run as soon as every flow completed
	// (default behaviour; set MaxTime too as a safety net).
	StopWhenDone bool

	// CollectTimeSeries enables the bucketed instantaneous series
	// (Fig. 8/9).
	CollectTimeSeries bool
	// TimeBucket is the series bucket width (default 1 ms).
	TimeBucket units.Time

	// Replication, when non-nil, enables RepFlow-style short-flow
	// replication (Xu & Li, 2014 — discussed in the paper's §8): each
	// flow at or below the threshold is opened as N copies with
	// different five-tuples (so per-flow schemes hash them onto
	// different paths), and the flow's completion time is the FIRST
	// copy to finish. The losing copies run to completion in the
	// background, which is RepFlow's documented bandwidth cost.
	Replication *ReplicationConfig

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

func (sc *Scenario) withDefaults() {
	if sc.TimeBucket <= 0 {
		sc.TimeBucket = units.Millisecond
	}
	if sc.MaxTime <= 0 {
		sc.MaxTime = 60 * units.Second
	}
	if sc.SchemeName == "" {
		sc.SchemeName = "unnamed"
	}
}

// ReplicationConfig parameterizes RepFlow-style replication.
type ReplicationConfig struct {
	// Threshold: flows at or below this size are replicated (100 KB —
	// RepFlow replicates only the mice).
	Threshold units.Bytes
	// Copies is the total number of copies (2 in RepFlow).
	Copies int
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
	// Flows holds the per-flow records, kept in addition to Stream unless
	// Scenario.StreamStats. They serve Each, FCTSample and exact
	// FCTPercentile. Records are in open order for every flow, replicated
	// or not (a flow's index is Flows[i].ID.Port, not i), and a flow is a
	// record only once it opened: one whose start the run never reached
	// is neither here nor counted in Stream.
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

	// ShortQueueLen counts, per received short-flow data packet up to
	// its receiver's freeze, the largest queue it saw at any hop (Fig.
	// 3a), every replicated copy's packets included. Always set.
	ShortQueueLen *stats.Histogram

	// Instantaneous series (when CollectTimeSeries): X in seconds. The
	// receiver series add in delivery order, every replicated copy's
	// packets included; goodput counts a replicated flow once, at its
	// win.
	ShortQueueDelayUs *stats.TimeSeries // mean queueing delay, µs
	ShortOOORatio     *stats.TimeSeries // mean out-of-order indicator
	LongOOORatio      *stats.TimeSeries
	ShortGoodputBytes *stats.TimeSeries // payload bytes per bucket
	LongGoodputBytes  *stats.TimeSeries
}

// Run executes the scenario and returns its measurements. It is the
// observer-less session path, equivalent to
// NewSession(sc, SessionOptions{}).Run(); use a Session directly for
// cancellation or a progress stream (see session.go, observer.go).
func Run(sc Scenario) (*Result, error) {
	return NewSession(sc, SessionOptions{}).Run()
}
