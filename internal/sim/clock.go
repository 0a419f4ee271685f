package sim

import "time"

// Clock is the run-control layer's one monotonic wall-clock seam: a
// reading of elapsed wall time since an arbitrary fixed epoch.
// Everything in internal/sim that needs wall time — Elapsed in
// ProgressEvents — subtracts two readings of one Clock, so the run
// harness has exactly one place that touches time.Now. Tests inject a
// fake to make wall-derived fields deterministic.
type Clock func() time.Duration

// WallClock returns a Clock backed by the process monotonic clock.
// This is the single wall-clock site of the run-control layer; the
// simulation itself only ever sees eventsim.Sim.Now.
func WallClock() Clock {
	//simlint:allow nowallclock(the run-control layer's single wall-clock seam: everything else subtracts two readings of the returned Clock)
	start := time.Now()
	return func() time.Duration {
		//simlint:allow nowallclock(same seam: a monotonic distance from the epoch captured one line up)
		return time.Since(start)
	}
}
