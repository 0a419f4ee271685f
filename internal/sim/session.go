package sim

import (
	"fmt"
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// This file is the run-control side of the run-control/measurement
// split: a Session owns one scenario's execution — validation, start,
// periodic snapshots — while the simulated world and its measurement
// live in the run core (core.go) and the observer stream (observer.go).
// Every run is: build the core, drive it, assemble the Result from it.
// Run and RunSweep are built on it.
//
// Determinism: a session that takes snapshots drives the core's engine
// in bounded RunUntil windows instead of one call, which is
// behavior-neutral — RunUntil executes events <= its deadline and then
// only advances the clock, so slicing [0, MaxTime] into windows
// executes the identical event sequence and lands on the identical end
// time (events observe the clock only at their own timestamps).
// Snapshots happen strictly *between* windows, on the session
// goroutine, reading counters — never from inside the event stream — so
// an attached observer cannot perturb results. A session that takes
// none runs the engine in one call.

// SessionOptions configure one Session.
type SessionOptions struct {
	// Observer, when non-nil, receives the session's progress stream
	// (see observer.go). Nil runs silently.
	Observer Observer
	// SnapshotEvery is the snapshot period in simulation time; <= 0
	// takes no snapshots, and the observer still sees the Done event.
	SnapshotEvery units.Time
	// Clock supplies wall time for Elapsed; nil means WallClock().
	// Injected so tests control the one wall-clock seam.
	Clock Clock
	// Index/Total stamp the session's position in a sweep onto its
	// events; a solo session defaults to 0 of 1.
	Index, Total int
}

// Session is the handle for one scenario: Run executes it. A Session
// runs at most once.
type Session struct {
	sc   Scenario
	opts SessionOptions

	start time.Duration

	// The engine's execution counters at the end of the run, and the
	// Result's packet hops, for the Done event.
	events         uint64
	engine         eventsim.Counters
	flowsAllocated int64
	packetHops     int64

	// onFold, when set, sees each flow record as it folds; the record
	// lives in a pooled flow, so it copies what it keeps. It is the
	// package tests' one view of per-flow records.
	onFold func(*transport.FlowStats)
}

// NewSession prepares a session for one scenario. The scenario is
// copied; later mutation of the caller's value does not affect the
// session.
func NewSession(sc Scenario, opts SessionOptions) *Session {
	if opts.Clock == nil {
		opts.Clock = WallClock()
	}
	if opts.Total <= 0 {
		opts.Total = 1
	}
	return &Session{sc: sc, opts: opts}
}

// Run executes the session's scenario and returns its measurements,
// exactly as the package-level Run does. Exactly one ProgressDone
// event is emitted per Run call, error or not.
func (ss *Session) Run() (*Result, error) {
	ss.start = ss.opts.Clock()
	sc := &ss.sc
	sc.withDefaults()
	if err := ss.validate(); err != nil {
		ss.emitDone(err)
		return nil, err
	}
	res, err := ss.run()
	ss.emitDone(err)
	return res, err
}

// run builds the core, drives it to its stop criterion and assembles
// the Result. An observing session slices the engine into snapshot
// windows and emits a snapshot strictly between event batches; any
// other session's one window is the whole run.
func (ss *Session) run() (*Result, error) {
	sc := &ss.sc
	c, err := newCore(sc)
	if err != nil {
		return nil, err
	}
	c.onFold = ss.onFold
	maxT := sc.MaxTime
	window := ss.window()
	next := window
	for !c.stopped {
		c.sim.RunUntil(min(maxT, next))
		if c.stopped || c.sim.Now() >= maxT || !ss.observing() {
			break
		}
		ss.snapshot(c)
		next += window
	}
	ss.events, ss.engine, ss.flowsAllocated = c.sim.Executed(), c.sim.Counters(), c.flowPool.Allocated()
	if c.err != nil {
		return nil, c.err
	}
	res, err := assemble(sc, c, c.sim.Now())
	if err == nil {
		ss.packetHops = res.PacketHops
	}
	return res, err
}

// snapshot emits one mid-run observation, between event batches.
func (ss *Session) snapshot(c *runCore) {
	ev := ss.baseEvent(ProgressSnapshot)
	ev.Events = c.sim.Executed()
	ss.opts.Observer.OnProgress(ev)
}

// validate applies the scenario checks that need no built network.
// The messages are part of the API surface — spec-layer tests match on
// them.
func (ss *Session) validate() error {
	sc := &ss.sc
	if sc.Balancer == nil {
		return fmt.Errorf("sim: scenario %q has no balancer", sc.Name)
	}
	if len(sc.Flows) > 0 {
		return fmt.Errorf("sim: scenario %q sets Flows, which no run reads: give the workload as FlowSourceNew (workload.Arrivals turns a slice into one)", sc.Name)
	}
	if sc.FlowSourceNew == nil {
		return fmt.Errorf("sim: scenario %q has no flows", sc.Name)
	}
	return nil
}

// observing reports whether periodic snapshots should be produced.
func (ss *Session) observing() bool {
	return ss.opts.Observer != nil && ss.opts.SnapshotEvery > 0
}

// window is the RunUntil slice width: the snapshot period when
// observing, the whole run otherwise.
func (ss *Session) window() units.Time {
	if ss.observing() {
		return ss.opts.SnapshotEvery
	}
	return ss.sc.MaxTime
}

// baseEvent stamps the fields every event of this session shares.
func (ss *Session) baseEvent(kind ProgressKind) ProgressEvent {
	return ProgressEvent{
		Kind:     kind,
		Index:    ss.opts.Index,
		Total:    ss.opts.Total,
		Scenario: ss.sc.Name,
		Elapsed:  ss.opts.Clock() - ss.start,
	}
}

// emitDone sends the session's terminal event.
func (ss *Session) emitDone(err error) {
	if ss.opts.Observer == nil {
		return
	}
	ev := ss.baseEvent(ProgressDone)
	ev.Completed = 1
	ev.Err = err
	ev.Events = ss.events
	ev.PacketHops = ss.packetHops
	ev.Engine = ss.engine
	ev.FlowsAllocated = ss.flowsAllocated
	ss.opts.Observer.OnProgress(ev)
}
