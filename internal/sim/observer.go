package sim

import (
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// This file is the measurement side of the run-control/measurement
// split: a typed progress stream a single session and a sweep emit
// over one interface. Observation is strictly read-only, and neutral
// by construction: the per-class aggregate a snapshot clones is the one
// every run folds into and publishes as Result.Stream whether or not an
// observer is attached, so attaching one adds no work to the run core
// — it only copies (exact Merge-able aggregate clones, port-stat
// snapshots) between event batches. TestSessionObserverNeutral and the
// figure-identity tests keep that pinned.

// ProgressKind discriminates the events of a session's progress stream.
type ProgressKind int

const (
	// ProgressSnapshot is a periodic mid-run observation, emitted every
	// SnapshotEvery of *simulation* time at an event-batch boundary.
	ProgressSnapshot ProgressKind = iota
	// ProgressDone is the session's terminal event: exactly one per
	// session, carrying the final aggregates and the error, if any.
	ProgressDone
)

// String names the kind for logs and the SSE wire format.
func (k ProgressKind) String() string {
	switch k {
	case ProgressSnapshot:
		return "snapshot"
	case ProgressDone:
		return "done"
	}
	return "unknown"
}

// ProgressEvent is one observation of a running (or just-finished)
// session. Snapshot events describe the run in flight; the Done event
// closes the stream. All reference fields (Classes, Uplinks) are
// copies owned by the receiver — retaining them is safe.
type ProgressEvent struct {
	Kind ProgressKind

	// Index is the scenario's position in its sweep (0 for a solo
	// session); Total the sweep size (1 solo). Completed counts sweep
	// scenarios finished so far including this one — it is stamped by
	// the sweep on Done events ("Completed/Total" is the k/n line) and
	// is 1 on a solo session's Done.
	Index, Completed, Total int

	// Scenario is the Scenario.Name, Scheme its SchemeName.
	Scenario string
	Scheme   string

	// Elapsed is wall-clock time since the session started, read from
	// the session's injected Clock.
	Elapsed time.Duration

	// Err is the session's failure (Done events only).
	Err error

	// SimTime is the engine clock at the observation; Events the total
	// events executed so far.
	SimTime units.Time
	Events  uint64
	// EventsPerSec is the event rate over the wall-clock interval since
	// the previous event of this session (0 when the interval is too
	// short to measure).
	EventsPerSec float64

	// FlowsStarted counts flows opened so far, FlowsDone those
	// completed.
	FlowsStarted int64
	FlowsDone    int64

	// Classes is a clone of the run's per-class aggregate: the flows
	// completed so far on a snapshot, Result.Stream on Done (so
	// unfinished flows included). Exact and Merge-able, so observers can
	// reduce across sessions. Nil only on a Done event that carries no
	// Result (validation failure, cancel, run error).
	Classes *StreamAgg

	// Uplinks snapshots the leaf uplink ports (queue depth sums feed
	// the live queue CDFs). Nil on events that carry no port state.
	Uplinks []PortSnapshot

	// Engine holds the event queue's own counters (Done events only).
	// They describe this execution — how the run was sliced into
	// windows moves them — not the simulated system, which is why they
	// live here and not in Result.
	Engine eventsim.Counters
}

// Observer receives a session's progress stream. Sessions call it
// synchronously from the run goroutine: implementations must be cheap
// and must not block, or they stall the simulation they are watching.
// Within one session the calls are sequential; a sweep serializes the
// streams of its concurrent sessions, so one observer instance may be
// shared across a whole sweep without its own locking.
type Observer interface {
	OnProgress(ProgressEvent)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(ProgressEvent)

// OnProgress implements Observer.
func (f ObserverFunc) OnProgress(ev ProgressEvent) { f(ev) }
