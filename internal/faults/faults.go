// Package faults implements deterministic, schedule-driven link-fault
// injection: a Schedule of timed events that take both directions of a
// leaf-spine link down (drops at admission, like a pulled cable) or
// restore them, applied to a running simulation at exact simulated
// times.
//
// The paper's §7 asymmetry experiments (Fig. 16–17) degrade links
// statically, before the run starts (topology overrides); this package
// adds the dynamic axis: links fail and recover mid-traffic, which is
// when adaptive-granularity schemes have to re-detect path conditions.
//
// Everything is deterministic: a Schedule is explicit data, the
// injector consumes no randomness, and events are applied in (time,
// schedule-order) order — so a faulted run replays exactly from its
// seed, at any sweep worker count.
package faults

import (
	"fmt"
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Op is one fault operation applied to a link.
type Op uint8

// Fault operations.
const (
	// OpDown fails the link: every Send drops at admission
	// (QueueStats.FaultDropped) and liveness-aware balancers route
	// around the port. Packets already on the wire still deliver.
	OpDown Op = iota
	// OpRestore revives the link.
	OpRestore
)

func (o Op) String() string {
	switch o {
	case OpDown:
		return "down"
	case OpRestore:
		return "restore"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one scheduled fault against both directed links between a
// leaf and a spine — the paper's Fig. 16/17 convention of degrading a
// "link" in both directions.
type Event struct {
	// At is the simulated time the fault applies.
	At units.Time
	// Leaf and Spine name the link pair, as in topology.LinkOverride.
	Leaf, Spine int
	// Op is what happens.
	Op Op
}

func (e Event) String() string {
	return fmt.Sprintf("%v leaf%d<->spine%d %s", e.At, e.Leaf, e.Spine, e.Op)
}

// Schedule is a set of fault events for one run. Order does not
// matter; events are applied by (At, position) order. An empty (or
// nil) schedule injects nothing.
type Schedule []Event

// Validate reports the first structurally invalid event. Leaf/spine
// range checking happens at Install time, against the actual fabric.
func (s Schedule) Validate() error {
	for i, e := range s {
		switch {
		case e.At < 0:
			return fmt.Errorf("faults: event %d (%v) scheduled before t=0", i, e)
		case e.Leaf < 0 || e.Spine < 0:
			return fmt.Errorf("faults: event %d (%v) has negative link coordinates", i, e)
		case e.Op > OpRestore:
			return fmt.Errorf("faults: event %d (%v) has unknown op", i, e)
		}
	}
	return nil
}

// Resolver maps a (leaf, spine) pair to its two directed ports:
// leaf→spine and spine→leaf. topology.(*Fabric).LinkPorts is the
// canonical implementation.
type Resolver func(leaf, spine int) (up, down *netem.Port, err error)

// Sorted returns the events in the order Install applies them: a
// stable sort by time, so equal-time events keep schedule order (and
// eventsim breaks ties FIFO by scheduling order).
func (s Schedule) Sorted() Schedule {
	events := make(Schedule, len(s))
	copy(events, s)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// Install validates the schedule, resolves every targeted port against
// the fabric, and schedules the events on the simulator in Sorted
// order. It must be called before the run starts (events in the past
// panic in eventsim).
func Install(sim *eventsim.Sim, sched Schedule, resolve Resolver) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	for _, ev := range sched.Sorted() {
		up, down, err := resolve(ev.Leaf, ev.Spine)
		if err != nil {
			return fmt.Errorf("faults: %v: %w", ev, err)
		}
		fail := ev.Op == OpDown
		sim.At(ev.At, func() {
			up.SetDown(fail)
			down.SetDown(fail)
		})
	}
	return nil
}
