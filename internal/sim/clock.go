package sim

import (
	"fmt"
	"time"
)

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

// RunCost is what finished runs cost, summed from their Done events:
// engine events, packet hops, and the sessions' Elapsed, which their
// Clock measured. Its rates divide by that Elapsed, so reporting them
// reads no clock.
type RunCost struct {
	Events     uint64
	PacketHops int64
	Elapsed    time.Duration
}

// Add sums one Done event in.
func (c *RunCost) Add(ev ProgressEvent) {
	c.Events += ev.Events
	c.PacketHops += ev.PacketHops
	c.Elapsed += ev.Elapsed
}

// String renders the rates: events executed per second, and wall
// nanoseconds per packet hop (which counts the events and everything
// else a hop costs).
func (c RunCost) String() string {
	if c.Elapsed <= 0 || c.PacketHops <= 0 {
		return fmt.Sprintf("%d events, %d packet hops", c.Events, c.PacketHops)
	}
	return fmt.Sprintf("%.2f M events/s, %.0f ns/packet-hop",
		float64(c.Events)/c.Elapsed.Seconds()/1e6, float64(c.Elapsed.Nanoseconds())/float64(c.PacketHops))
}
