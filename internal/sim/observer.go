package sim

import (
	"time"

	"tlb/internal/eventsim"
)

// This file is the measurement side of the run-control/measurement
// split: a typed progress stream a single session and a sweep emit
// over one interface. Observation is strictly read-only, and neutral
// by construction: an event carries only the session's identity, wall
// time and engine counters, read between event batches, so attaching
// an observer adds no work to the run core. TestSessionObserverNeutral
// and the figure-identity tests keep that pinned.

// ProgressKind discriminates the events of a session's progress stream.
type ProgressKind int

const (
	// ProgressSnapshot is a periodic mid-run observation, emitted every
	// SnapshotEvery of *simulation* time at an event-batch boundary.
	ProgressSnapshot ProgressKind = iota
	// ProgressDone is the session's terminal event: exactly one per
	// session, carrying the error, if any.
	ProgressDone
)

// ProgressEvent is one observation of a running (or just-finished)
// session. Snapshot events describe the run in flight; the Done event
// closes the stream.
type ProgressEvent struct {
	Kind ProgressKind

	// Index is the scenario's position in its sweep (0 for a solo
	// session); Total the sweep size (1 solo). Completed counts sweep
	// scenarios finished so far including this one — it is stamped by
	// the sweep on Done events ("Completed/Total" is the k/n line) and
	// is 1 on a solo session's Done.
	Index, Completed, Total int

	// Scenario is the Scenario.Name.
	Scenario string

	// Elapsed is wall-clock time since the session started, read from
	// the session's injected Clock.
	Elapsed time.Duration

	// Err is the session's failure (Done events only).
	Err error

	// Events is the total events executed so far.
	Events uint64

	// PacketHops is the run's Result.PacketHops (Done events of runs
	// that produced a Result only).
	PacketHops int64

	// Engine holds the event queue's own counters (Done events only).
	// They describe this execution — how the run was sliced into
	// windows moves them — not the simulated system, which is why they
	// live here and not in Result.
	Engine eventsim.Counters

	// FlowsAllocated is how many flow objects the run's flow pool
	// allocated (Done events only): the most flows open or awaiting
	// their receiver's close at once, not the flow count, since each
	// later flow reuses a released one. Like Engine, it describes the
	// execution.
	FlowsAllocated int64
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
