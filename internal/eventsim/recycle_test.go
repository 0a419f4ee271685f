package eventsim

import (
	"sort"
	"testing"
)

// TestStopBeforeRun pins the pre-Run Stop semantics: a Stop issued
// while no Run is in progress makes the next Run return immediately
// (executing nothing, not advancing the clock), is consumed by that
// return, and the Run after that proceeds normally.
func TestStopBeforeRun(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.Stop()
	s.RunUntil(100)
	if fired != 0 {
		t.Fatal("Run after a pre-Run Stop executed events")
	}
	if s.Now() != 0 {
		t.Fatalf("Run after a pre-Run Stop advanced the clock to %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending events lost across a stopped Run: %d", s.Pending())
	}
	// The Stop was consumed: the next Run proceeds.
	s.RunUntil(100)
	if fired != 1 {
		t.Fatalf("Run after a consumed Stop fired %d events, want 1", fired)
	}
	if s.Now() != 100 {
		t.Fatalf("clock at %v after RunUntil(100), want 100", s.Now())
	}
}

// TestStopMidRunConsumed: a Stop issued by an event ends that Run and
// is consumed, so the next Run resumes the remaining events.
func TestStopMidRunConsumed(t *testing.T) {
	s := New()
	var fired []Time
	s.At(1, func() { fired = append(fired, s.Now()) })
	s.At(2, func() { fired = append(fired, s.Now()); s.Stop() })
	s.At(3, func() { fired = append(fired, s.Now()) })
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("stopped run fired %d events, want 2", len(fired))
	}
	s.Run()
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("resumed run did not fire the remaining event: %v", fired)
	}
}

// TestCancelRecycledEventIsNoOp: after an event fires, its node goes
// back to the freelist and is reused by the next schedule; cancelling
// through the stale handle must not touch the new occupant.
func TestCancelRecycledEventIsNoOp(t *testing.T) {
	s := New()
	stale := s.At(1, func() {})
	s.Run() // fires; node released

	fired := false
	fresh := s.At(10, func() { fired = true })
	if stale.Scheduled() {
		t.Fatal("stale handle reports scheduled after its event fired")
	}
	if s.Cancel(stale) { // generation mismatch: must be a no-op
		t.Fatal("stale handle cancelled the recycled node's new event")
	}
	if !fresh.Scheduled() {
		t.Fatal("cancelling a stale handle killed the recycled node's new event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestCancelledHandleStaysInertAfterReuse covers the cancel-then-reuse
// direction: cancel an event, schedule a new one (reusing the node),
// and verify the cancelled handle can neither cancel nor report the
// new event.
func TestCancelledHandleStaysInertAfterReuse(t *testing.T) {
	s := New()
	old := s.At(5, func() { t.Error("cancelled event fired") })
	if !s.Cancel(old) {
		t.Fatal("Cancel of a pending event reported not-pending")
	}

	fired := false
	s.At(7, func() { fired = true })
	if old.Scheduled() {
		t.Fatal("cancelled handle reports the recycled node's new event as its own")
	}
	if s.Cancel(old) {
		t.Fatal("stale cancel reported success against the recycled node")
	}
	s.Run()
	if !fired {
		t.Fatal("event scheduled into a recycled node was killed by a stale cancel")
	}
}

// TestHandleAtSurvivesRecycle: a handle's At() reports the time it was
// scheduled for even after the node was recycled for a later event.
func TestHandleAtSurvivesRecycle(t *testing.T) {
	s := New()
	h := s.At(42, func() {})
	s.Run()
	s.At(99, func() {})
	if h.At() != 42 {
		t.Fatalf("stale handle At() = %v, want 42", h.At())
	}
}

// TestEventChurn is a fuzz-style workout of the freelist: thousands of
// interleaved At/Cancel/Step operations driven by a seeded RNG, with an
// oracle tracking exactly which event IDs must fire. Any resurrection
// through recycled nodes (a cancelled event firing, a live one lost, a
// double fire) breaks the oracle.
func TestEventChurn(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := NewRNG(seed)
		s := New()
		type rec struct {
			h  Event
			id int
		}
		var live []rec
		nextID := 0
		fired := map[int]int{} // id -> fire count
		expected := map[int]bool{}

		for op := 0; op < 5000; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				id := nextID
				nextID++
				at := s.Now() + Time(rng.Intn(50))
				expected[id] = true
				live = append(live, rec{h: s.At(at, func() { fired[id]++ }), id: id})
			case 2: // cancel a random live handle (possibly stale)
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if live[i].h.Scheduled() {
						expected[live[i].id] = false
					}
					s.Cancel(live[i].h)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 3: // run one event
				s.Step()
			}
		}
		for s.Step() {
		}

		var missing, resurrected, double []int
		for id, want := range expected {
			switch {
			case want && fired[id] == 0:
				missing = append(missing, id)
			case !want && fired[id] > 0:
				resurrected = append(resurrected, id)
			case fired[id] > 1:
				double = append(double, id)
			}
		}
		sort.Ints(missing)
		sort.Ints(resurrected)
		sort.Ints(double)
		if len(missing)+len(resurrected)+len(double) > 0 {
			t.Fatalf("seed %d: missing=%v resurrected=%v double=%v",
				seed, missing, resurrected, double)
		}
	}
}

// TestAtArg verifies the closure-free scheduling variant: ordering
// with At events, argument delivery, and cancellation.
func TestAtArg(t *testing.T) {
	s := New()
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	s.AtArg(20, record, 2)
	s.AtArg(10, record, 1)
	s.At(15, func() { got = append(got, 15) })
	c := s.AtArg(5, record, 99)
	if !s.Cancel(c) {
		t.Fatal("Cancel of a pending AtArg event reported not-pending")
	}
	s.Run()
	want := []int{1, 15, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestAtArgNilFnPanics: the arg variant enforces the same nil-callback
// contract as At.
func TestAtArgNilFnPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("AtArg(nil) did not panic")
		}
	}()
	s.AtArg(1, nil, 0)
}

// TestFreelistRecyclesNodes pins that the freelist actually recycles:
// run far more events through a Sim than the block size and check the
// heap never holds more nodes than its peak concurrency needs.
func TestFreelistRecyclesNodes(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 10*eventBlock; i++ {
		s.At(s.Now(), func() { n++ })
		if !s.Step() {
			t.Fatal("step had nothing to run")
		}
	}
	if n != 10*eventBlock {
		t.Fatalf("ran %d events, want %d", n, 10*eventBlock)
	}
	// One event live at a time: a single block must have sufficed.
	if got := len(s.free); got > eventBlock {
		t.Fatalf("freelist grew to %d nodes for a 1-deep schedule (block size %d): not recycling",
			got, eventBlock)
	}
}
