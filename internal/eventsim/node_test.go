package eventsim

import (
	"testing"
)

// checkIdentity fails unless every scheduled or armed event is
// accounted for: WheelInserts+SpillInserts == Executed+Cancels+Pending.
func checkIdentity(t *testing.T, s *Sim) {
	t.Helper()
	c := s.Counters()
	if got, want := c.WheelInserts+c.SpillInserts, s.Executed()+c.Cancels+uint64(s.Pending()); got != want {
		t.Fatalf("%d inserts, %d executed + cancelled + pending (%+v)", got, want, c)
	}
}

// TestNodeRearmsFromItsCallback arms an owned node, lets it fire and
// re-arms it from its own callback, as a netem port re-arms its
// delivery: it fires at every armed instant, is pending exactly while
// armed, and never touches the freelist, so a run of it allocates
// nothing.
func TestNodeRearmsFromItsCallback(t *testing.T) {
	s := New()
	var n Node
	var fired []Time
	n.Bind(func(any) {
		fired = append(fired, s.Now())
		if s.Pending() != 0 {
			t.Fatalf("node still pending inside its own callback at %v", s.Now())
		}
		if len(fired) < 5 {
			s.Arm(&n, s.Now()+10, KeyDomain)
		}
	}, nil)
	s.Arm(&n, 3, KeyDomain)
	if s.Pending() != 1 {
		t.Fatalf("armed node: %d pending, want 1", s.Pending())
	}
	s.Run()
	want := []Time{3, 13, 23, 33, 43}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if s.Executed() != 5 || s.Pending() != 0 || len(s.free) != 0 {
		t.Fatalf("after the run: executed %d, pending %d, %d free nodes; want 5, 0, 0", s.Executed(), s.Pending(), len(s.free))
	}
	checkIdentity(t, s)

	fired = fired[:0]
	if a := testing.AllocsPerRun(10, func() {
		s.Arm(&n, s.Now()+1, KeyDomain)
		s.Run()
	}); a != 0 {
		t.Fatalf("arm and fire an owned node: %v allocs/op, want 0", a)
	}
}

// TestNodeArmPastHorizonSpills: a node armed beyond the wheel horizon
// goes to the spill like any schedule there, migrates into the wheel as
// the clock approaches, and fires at its instant.
func TestNodeArmPastHorizonSpills(t *testing.T) {
	s := New()
	var n Node
	var at Time
	n.Bind(func(any) { at = s.Now() }, nil)
	far := 3*wheelHorizon + 7
	s.Arm(&n, far, KeyDomain|1)
	if c := s.Counters(); c.SpillInserts != 1 || c.WheelInserts != 0 {
		t.Fatalf("arm past the horizon: %+v, want one spill insert", c)
	}
	// A second far event brings the clock within reach of the node;
	// both migrate.
	s.At(far-wheelHorizon/2, func() {})
	s.RunUntil(far - 1)
	if c := s.Counters(); c.Migrations != 2 || s.Pending() != 1 {
		t.Fatalf("before its instant: %+v with %d pending, want two migrations and the node pending", c, s.Pending())
	}
	s.Run()
	if at != far {
		t.Fatalf("node fired at %v, want %v", at, far)
	}
	checkIdentity(t, s)
}

// TestNodeOrderAmongPooled: owned and pooled events on one instant keep
// the engine's single (at, seq) order — counter-sequenced events first
// in scheduling order, then keyed ones by key, whether a keyed event is
// an AtKey schedule or an armed node — and arming consumes no sequence
// number.
func TestNodeOrderAmongPooled(t *testing.T) {
	s := New()
	var log []int
	nodes := make([]Node, 3)
	for i := range nodes {
		nodes[i].Bind(func(arg any) { log = append(log, arg.(int)) }, 10+i)
	}
	logArg := func(arg any) { log = append(log, arg.(int)) }
	s.Arm(&nodes[0], 100, KeyDomain|5)
	s.AtKey(100, KeyDomain|2, logArg, 20)
	s.At(100, func() { log = append(log, 0) })
	s.Arm(&nodes[1], 100, KeyDomain|1)
	s.AtArg(100, logArg, 1)
	s.AtKey(100, KeyDomain|9, logArg, 21)
	s.Arm(&nodes[2], 100, KeyDomain|7)
	s.At(100, func() { log = append(log, 2) })
	if s.seq != 3 {
		t.Fatalf("three counter schedules consumed %d sequence numbers", s.seq)
	}
	s.Run()
	want := []int{0, 1, 2, 11, 20, 10, 12, 21}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
	checkIdentity(t, s)
}

// TestNodeCountersIdentity holds the counters' identity at quiescent
// points of a run that mixes armed nodes (re-arming, some past the
// horizon), pooled schedules and cancels, with events still pending.
func TestNodeCountersIdentity(t *testing.T) {
	s := New()
	rng := NewRNG(3)
	nodes := make([]Node, 8)
	for i := range nodes {
		n := &nodes[i]
		n.Bind(func(any) {
			if rng.Intn(4) != 0 {
				s.Arm(n, s.Now()+Time(rng.Intn(int(2*wheelHorizon))), KeyDomain|uint64(i))
			}
		}, nil)
		s.Arm(n, Time(rng.Intn(1000)), KeyDomain|uint64(i))
	}
	var hs []Event
	for round := 0; round < 200; round++ {
		hs = append(hs, s.After(Time(rng.Intn(int(3*wheelHorizon))), func() {}))
		if rng.Intn(3) == 0 {
			s.Cancel(hs[rng.Intn(len(hs))])
		}
		s.RunUntil(s.Now() + Time(rng.Intn(100_000)))
		checkIdentity(t, s)
	}
	if c := s.Counters(); c.SpillInserts == 0 || c.Cancels == 0 || s.Pending() == 0 {
		t.Fatalf("the mix missed a path: %+v, %d pending", c, s.Pending())
	}
	s.Run()
	checkIdentity(t, s)
}

// TestArmMisusePanics: arming a pending node, an unbound one, or with a
// key outside the keyed domain is a modelling bug.
func TestArmMisusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s := New()
	var bound, unbound Node
	bound.Bind(func(any) {}, nil)
	mustPanic("Arm of an unbound node", func() { s.Arm(&unbound, 1, KeyDomain) })
	mustPanic("Arm with a counter-domain key", func() { s.Arm(&bound, 1, 1) })
	s.Arm(&bound, 1, KeyDomain)
	mustPanic("Arm of a pending node", func() { s.Arm(&bound, 2, KeyDomain) })
	s.Run()
	mustPanic("Arm in the past", func() { s.Arm(&bound, 0, KeyDomain) })
}
