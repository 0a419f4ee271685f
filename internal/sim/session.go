package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// This file is the run-control side of the run-control/measurement
// split: a Session owns one scenario's execution — validation, start,
// cooperative cancellation, periodic snapshots — while the simulated
// world and its measurement live in the run core (core.go) and the
// observer stream (observer.go). Every run is: build the core, drive it
// in the session's windows, assemble the Result from it. Run and
// RunSweep are built on it.
//
// Determinism: the session drives the core's engine in bounded
// RunUntil windows instead of one call, which is behavior-neutral —
// RunUntil executes events <= its deadline and then only advances the
// clock, so slicing [0, MaxTime] into windows executes the identical
// event sequence and lands on the identical end time (events observe
// the clock only at their own timestamps). Cancellation and snapshots
// happen strictly *between* windows, on the session goroutine, reading
// copies — never from inside the event stream — so an attached
// observer cannot perturb results, and a cancel discards the partial
// run rather than returning a half-measured Result.

// ErrCanceled is the terminal error of a canceled session, wrapped
// with the scenario name; test with errors.Is.
var ErrCanceled = errors.New("run canceled")

// DefaultSnapshotEvery is the snapshot period (in simulation time)
// used when an observer is attached without an explicit period. It is
// also the cancellation-check granularity of every session, observer
// or not.
const DefaultSnapshotEvery = 10 * units.Millisecond

// NoSnapshots disables periodic snapshots for a session that still
// wants the terminal Done event (e.g. a sweep whose caller only
// consumes per-scenario completions).
const NoSnapshots units.Time = -1

// SessionOptions configure one Session.
type SessionOptions struct {
	// Observer, when non-nil, receives the session's progress stream
	// (see observer.go). Nil runs silently.
	Observer Observer
	// SnapshotEvery is the snapshot period in simulation time: 0 means
	// DefaultSnapshotEvery, NoSnapshots (or any negative value)
	// disables snapshots while keeping the Done event.
	SnapshotEvery units.Time
	// Clock supplies wall time for Elapsed and events/sec; nil means
	// WallClock(). Injected so tests and the serve layer control the
	// one wall-clock seam.
	Clock Clock
	// Index/Total stamp the session's position in a sweep onto its
	// events; a solo session defaults to 0 of 1.
	Index, Total int
}

// Session is the handle for one running scenario: Run executes it,
// Cancel (from any goroutine) stops it at the next event-batch
// boundary. A Session runs at most once.
type Session struct {
	sc   Scenario
	opts SessionOptions

	clock    Clock
	start    time.Duration
	canceled atomic.Bool

	// Progress counters, written by the runner goroutine between event
	// batches and copied into events; never read concurrently.
	flowsStarted int64
	flowsDone    int64
	events       uint64
	engine       eventsim.Counters

	// Event-rate bookkeeping for EventsPerSec.
	lastEvents uint64
	lastWall   time.Duration
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
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	return &Session{sc: sc, opts: opts, clock: opts.Clock}
}

// Cancel requests cooperative cancellation: the run stops at the next
// event-batch boundary, discards the partial result, and returns an
// error wrapping ErrCanceled. Canceling before Run prevents the
// simulation from being built at all. Safe from any goroutine, and
// after completion (where it is a no-op).
func (ss *Session) Cancel() { ss.canceled.Store(true) }

// Canceled reports whether Cancel has been called.
func (ss *Session) Canceled() bool { return ss.canceled.Load() }

// Run executes the session's scenario and returns its measurements,
// exactly as the package-level Run does. Exactly one ProgressDone
// event is emitted per Run call, error or not.
func (ss *Session) Run() (*Result, error) {
	ss.start = ss.clock()
	ss.lastWall = ss.start
	sc := &ss.sc
	sc.withDefaults()
	if err := ss.validate(); err != nil {
		ss.emitDone(nil, err)
		return nil, err
	}
	if ss.Canceled() {
		err := ss.cancelErr()
		ss.emitDone(nil, err)
		return nil, err
	}
	res, err := ss.run()
	ss.emitDone(res, err)
	return res, err
}

// run builds the core, drives it to its stop criterion and assembles
// the Result. The run-control loop slices the engine into bounded
// windows so the session can check cancellation and emit snapshots
// strictly between event batches.
func (ss *Session) run() (*Result, error) {
	sc := &ss.sc
	c, err := newCore(sc)
	if err != nil {
		return nil, err
	}
	maxT := sc.MaxTime
	window := ss.window()
	next := window
	for !c.stopped {
		if ss.Canceled() {
			ss.tally(c)
			return nil, ss.cancelErr()
		}
		c.sim.RunUntil(min(maxT, next))
		if c.stopped || c.sim.Now() >= maxT {
			break
		}
		if ss.observing() && c.sim.Now() >= next {
			ss.tally(c)
			ss.snapshot(c)
		}
		next += window
	}
	ss.tally(c)
	if c.err != nil {
		return nil, c.err
	}
	return assemble(sc, c, c.sim.Now())
}

// tally copies the core's progress counters into the session, between
// event batches.
func (ss *Session) tally(c *runCore) {
	ss.flowsStarted = c.started
	ss.flowsDone = c.done
	ss.events = c.sim.Executed()
	ss.engine = c.sim.Counters()
}

// snapshot emits one mid-run observation of the core, between event
// batches: a copy of the per-class aggregate the run folds into
// whether or not anyone watches, and the uplink ports.
func (ss *Session) snapshot(c *runCore) {
	ev := ss.baseEvent(ProgressSnapshot)
	ev.SimTime = c.sim.Now()
	ev.Events = ss.events
	ev.EventsPerSec = ss.rate(ss.events)
	ev.Classes = c.agg.Clone()
	ev.Uplinks = c.uplinks()
	ss.emit(ev)
}

// validate applies the scenario checks that need no built network.
// The messages are part of the API surface — spec-layer tests match on
// them.
func (ss *Session) validate() error {
	sc := &ss.sc
	if sc.Balancer == nil {
		return fmt.Errorf("sim: scenario %q has no balancer", sc.Name)
	}
	hasSource := sc.FlowSourceNew != nil
	if len(sc.Flows) == 0 && !hasSource {
		return fmt.Errorf("sim: scenario %q has no flows", sc.Name)
	}
	if len(sc.Flows) > 0 && hasSource {
		return fmt.Errorf("sim: scenario %q sets both Flows and FlowSourceNew", sc.Name)
	}
	if sc.StreamStats && sc.Replication != nil {
		return fmt.Errorf("sim: scenario %q: StreamStats is incompatible with Replication (racing copies need retained records)", sc.Name)
	}
	return nil
}

func (ss *Session) cancelErr() error {
	return fmt.Errorf("sim: scenario %q: %w", ss.sc.Name, ErrCanceled)
}

// observing reports whether periodic snapshots should be produced.
func (ss *Session) observing() bool {
	return ss.opts.Observer != nil && ss.opts.SnapshotEvery > 0
}

// window is the RunUntil slice width: the snapshot period when
// observing, the default cancellation-check granularity otherwise.
func (ss *Session) window() units.Time {
	if ss.opts.SnapshotEvery > 0 {
		return ss.opts.SnapshotEvery
	}
	return DefaultSnapshotEvery
}

// emit forwards one event to the observer, if any.
func (ss *Session) emit(ev ProgressEvent) {
	if ss.opts.Observer != nil {
		ss.opts.Observer.OnProgress(ev)
	}
}

// baseEvent stamps the fields every event of this session shares.
func (ss *Session) baseEvent(kind ProgressKind) ProgressEvent {
	return ProgressEvent{
		Kind:         kind,
		Index:        ss.opts.Index,
		Total:        ss.opts.Total,
		Scenario:     ss.sc.Name,
		Scheme:       ss.sc.SchemeName,
		Elapsed:      ss.clock() - ss.start,
		FlowsStarted: ss.flowsStarted,
		FlowsDone:    ss.flowsDone,
	}
}

// rate returns events/sec over the wall interval since the previous
// call, advancing the interval bookkeeping.
func (ss *Session) rate(events uint64) float64 {
	now := ss.clock()
	dE := events - ss.lastEvents
	dT := now - ss.lastWall
	ss.lastEvents, ss.lastWall = events, now
	if dT <= 0 {
		return 0
	}
	return float64(dE) / dT.Seconds()
}

// emitDone sends the session's terminal event.
func (ss *Session) emitDone(res *Result, err error) {
	if ss.opts.Observer == nil {
		return
	}
	ev := ss.baseEvent(ProgressDone)
	ev.Completed = 1
	ev.Err = err
	ev.Events = ss.events
	ev.Engine = ss.engine
	ev.EventsPerSec = ss.rate(ss.events)
	if res != nil {
		ev.SimTime = res.EndTime
		ev.Classes = res.Stream.Clone()
		ev.Uplinks = res.Uplinks
	}
	ss.emit(ev)
}
