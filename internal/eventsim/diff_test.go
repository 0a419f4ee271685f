package eventsim

import (
	"testing"
)

// dualSim drives the calendar-queue engine and the old-heap reference
// through one operation stream and checks they agree on everything
// observable: fire order, clock, Executed and Pending. It is the
// oracle behind TestDifferentialRandomOps and FuzzEventOrder.
type dualSim struct {
	t    testing.TB
	s    *Sim
	r    *refSim
	sLog []int
	rLog []int
	sH   []Event
	rH   []refHandle
}

func newDualSim(t testing.TB) *dualSim {
	return &dualSim{t: t, s: New(), r: newRefSim()}
}

// schedule adds event id at absolute time at to both engines,
// alternating between the closure (At) and closure-free (AtArg)
// scheduling paths so both consume sequence numbers identically.
func (d *dualSim) schedule(id int, at Time) {
	if at < d.s.Now() {
		return
	}
	if id%2 == 0 {
		d.sH = append(d.sH, d.s.At(at, func() { d.sLog = append(d.sLog, id) }))
	} else {
		d.sH = append(d.sH, d.s.AtArg(at, func(any) { d.sLog = append(d.sLog, id) }, nil))
	}
	d.rH = append(d.rH, d.r.At(at, func() { d.rLog = append(d.rLog, id) }))
}

// scheduleKeyed exercises AtKey, the primitive every packet delivery
// and flow teardown is scheduled with: the event's position within its
// instant comes from the caller's key, not the FIFO counter. Equal
// (time, key) pairs fire in unspecified order, so the low bits carry
// the id to keep keys unique while salt — the high bits — decides the
// order among keyed events.
func (d *dualSim) scheduleKeyed(id int, at Time, salt uint64) {
	if at < d.s.Now() {
		return
	}
	key := KeyDomain | salt<<20 | uint64(id)&(1<<20-1)
	d.sH = append(d.sH, d.s.AtKey(at, key, func(any) { d.sLog = append(d.sLog, id) }, nil))
	d.rH = append(d.rH, d.r.AtKey(at, key, func() { d.rLog = append(d.rLog, id) }))
}

// scheduleChained schedules id, whose firing schedules id+chainOffset
// a little later — covering events scheduled from inside callbacks.
func (d *dualSim) scheduleChained(id int, at, childDelta Time) {
	if at < d.s.Now() {
		return
	}
	d.sH = append(d.sH, d.s.At(at, func() {
		d.sLog = append(d.sLog, id)
		d.s.At(d.s.Now()+childDelta, func() { d.sLog = append(d.sLog, id+chainOffset) })
	}))
	d.rH = append(d.rH, d.r.At(at, func() {
		d.rLog = append(d.rLog, id)
		d.r.At(d.r.Now()+childDelta, func() { d.rLog = append(d.rLog, id+chainOffset) })
	}))
}

const chainOffset = 1 << 24

// cancel cancels handle index i (which may be stale: fired or already
// cancelled) in both engines; the reported pending-ness must match.
func (d *dualSim) cancel(i int) {
	if len(d.sH) == 0 {
		return
	}
	i %= len(d.sH)
	sOK := d.s.Cancel(d.sH[i])
	rOK := d.r.Cancel(d.rH[i])
	if sOK != rOK {
		d.t.Fatalf("Cancel(handle %d) diverged: wheel %v, ref %v", i, sOK, rOK)
	}
}

func (d *dualSim) step() {
	sOK := d.s.Step()
	rOK := d.r.Step()
	if sOK != rOK {
		d.t.Fatalf("Step availability diverged: wheel %v, ref %v", sOK, rOK)
	}
	d.check("after Step")
}

func (d *dualSim) runUntil(deadline Time) {
	d.s.RunUntil(deadline)
	d.r.RunUntil(deadline)
	d.check("after RunUntil")
}

func (d *dualSim) run() {
	d.s.Run()
	d.r.Run()
	d.check("after Run")
}

func (d *dualSim) check(when string) {
	d.t.Helper()
	if len(d.sLog) != len(d.rLog) {
		d.t.Fatalf("%s: wheel fired %d events, ref fired %d", when, len(d.sLog), len(d.rLog))
	}
	for i := range d.sLog {
		if d.sLog[i] != d.rLog[i] {
			d.t.Fatalf("%s: fire order diverged at position %d: wheel id %d, ref id %d",
				when, i, d.sLog[i], d.rLog[i])
		}
	}
	if d.s.Now() != d.r.Now() {
		d.t.Fatalf("%s: clocks diverged: wheel %v, ref %v", when, d.s.Now(), d.r.Now())
	}
	if d.s.Executed() != d.r.Executed() {
		d.t.Fatalf("%s: Executed diverged: wheel %d, ref %d", when, d.s.Executed(), d.r.Executed())
	}
	if d.s.Pending() != d.r.Pending() {
		d.t.Fatalf("%s: Pending diverged: wheel %d, ref %d", when, d.s.Pending(), d.r.Pending())
	}
}

// TestDifferentialRandomOps is the calendar queue's oracle: randomized
// schedule / cancel / RunUntil / Step workloads over several seeds,
// mixing near-horizon events (wheel slots), far-horizon events (the
// spill heap, and migration back as the clock advances), exact
// same-timestamp bursts (batched dispatch) that mix keyed and
// counter-sequenced events on one instant, keyed scheduling and
// cancel-after-fire — always requiring behavior identical to the old
// heap.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := NewRNG(seed)
		d := newDualSim(t)
		nextID := 0
		for op := 0; op < 3000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // near-horizon schedule (wheel)
				d.schedule(nextID, d.s.Now()+Time(rng.Intn(200_000)))
				nextID++
			case 3: // far-horizon schedule (spill, > wheelHorizon)
				d.schedule(nextID, d.s.Now()+wheelHorizon+Time(rng.Intn(50_000_000)))
				nextID++
			case 4: // same-timestamp burst, keyed and counter events colliding
				at := d.s.Now() + Time(rng.Intn(100_000))
				for k := rng.Intn(6) + 2; k > 0; k-- {
					if rng.Intn(3) == 0 {
						d.scheduleKeyed(nextID, at, uint64(rng.Intn(4)))
					} else {
						d.schedule(nextID, at)
					}
					nextID++
				}
			case 5: // keyed schedule
				d.scheduleKeyed(nextID, d.s.Now()+Time(rng.Intn(300_000)), uint64(rng.Intn(1<<16)))
				nextID++
			case 6: // schedule-from-callback chain
				d.scheduleChained(nextID, d.s.Now()+Time(rng.Intn(100_000)), Time(rng.Intn(2_000_000)))
				nextID++
			case 7: // cancel (live or stale)
				d.cancel(rng.Intn(1 << 20))
			case 8:
				d.step()
			case 9:
				d.runUntil(d.s.Now() + Time(rng.Intn(3_000_000)))
			}
		}
		d.run()
		if d.s.Pending() != 0 {
			t.Fatalf("seed %d: events left pending after Run: %d", seed, d.s.Pending())
		}
		t.Logf("seed %d: %d events fired, clock at %v", seed, len(d.sLog), d.s.Now())
	}
}

// TestDifferentialHorizonBoundary pins the exact wheel/spill boundary:
// events scheduled right at, just inside and just beyond the horizon,
// then fired across several horizon advances, must match the
// reference in every observable.
func TestDifferentialHorizonBoundary(t *testing.T) {
	d := newDualSim(t)
	id := 0
	for _, base := range []Time{0, wheelHorizon - 1, wheelHorizon, wheelHorizon + 1,
		2*wheelHorizon - 1, 2 * wheelHorizon, 5 * wheelHorizon} {
		for _, off := range []Time{0, 1, (1 << slotShift) - 1, 1 << slotShift} {
			d.schedule(id, base+off)
			id++
		}
	}
	for d.s.Pending() > 0 {
		d.runUntil(d.s.Now() + wheelHorizon/2)
	}
	d.run()
}

// TestDifferentialStopInBatch verifies Stop issued from inside a
// same-timestamp batch halts both engines at the same position.
func TestDifferentialStopInBatch(t *testing.T) {
	d := newDualSim(t)
	for i := 0; i < 10; i++ {
		d.schedule(i, 100)
	}
	d.sH = append(d.sH, d.s.At(100, func() { d.sLog = append(d.sLog, 10); d.s.Stop() }))
	d.rH = append(d.rH, d.r.At(100, func() { d.rLog = append(d.rLog, 10); d.r.Stop() }))
	for i := 11; i < 20; i++ {
		d.schedule(i, 100)
	}
	d.run() // stops mid-batch at id 10
	if len(d.sLog) != 11 {
		t.Fatalf("stopped batch fired %d events, want 11", len(d.sLog))
	}
	d.run() // resumes the rest of the batch
	if len(d.sLog) != 20 {
		t.Fatalf("resumed batch fired %d events total, want 20", len(d.sLog))
	}
}

// TestDifferentialKeyedAmongCounters pins the two-domain order on one
// instant: keyed events fire after every counter-sequenced one — even
// one scheduled later, from a callback, while keyed events are already
// pending in the batch — and among themselves by key, not by
// scheduling order.
func TestDifferentialKeyedAmongCounters(t *testing.T) {
	d := newDualSim(t)
	d.scheduleKeyed(0, 100, 7)
	d.scheduleKeyed(1, 100, 3)
	d.schedule(2, 100)
	d.scheduleChained(3, 100, 0) // its child (a counter event) lands on the same instant
	d.scheduleKeyed(4, 100, 5)
	d.schedule(5, 100)
	d.run()
	want := []int{2, 3, 5, 3 + chainOffset, 1, 4, 0}
	if len(d.sLog) != len(want) {
		t.Fatalf("fired %v, want %v", d.sLog, want)
	}
	for i := range want {
		if d.sLog[i] != want[i] {
			t.Fatalf("fired %v, want %v", d.sLog, want)
		}
	}
}

// TestDifferentialDenseSlots drives the sort-on-reach slot discipline
// through every state a slot can be in. Each round piles 64–320 events
// into one future slot in scrambled (at, seq) order, keyed and
// counter-sequenced mixed and colliding on instants — arrival-order
// tail appends, far more than the in-place list sort's budget, so the
// key sort runs; cancels members (rarely the head) while the slot is
// still unsorted; runs to a deadline short of the slot, which sorts it
// ahead of the clock, then inserts behind that look-ahead
// frontier, into the empty slots before it and into the sorted slot
// itself; stops a RunUntil inside the slot and schedules around the
// clock again; and throws in small neighbouring slots for the list
// sort. Fire order, clock, Executed and Pending must match the
// reference heap throughout.
func TestDifferentialDenseSlots(t *testing.T) {
	const slotNs = 1 << slotShift
	for seed := uint64(1); seed <= 6; seed++ {
		rng := NewRNG(seed)
		d := newDualSim(t)
		nextID := 0
		mixed := func(at Time) {
			if rng.Intn(3) == 0 {
				d.scheduleKeyed(nextID, at, uint64(rng.Intn(1<<12)))
			} else {
				d.schedule(nextID, at)
			}
			nextID++
		}
		for round := 0; round < 30; round++ {
			now := d.s.Now()
			base := (now>>slotShift + 2 + Time(rng.Intn(3000))) << slotShift
			first := len(d.sH)
			n := 64 + rng.Intn(256)
			for k := 0; k < n; k++ {
				// A third of the burst shares eight instants, so keyed
				// and counter events tie on time and order by seq.
				off := Time(rng.Intn(slotNs))
				if rng.Intn(3) == 0 {
					off = Time(rng.Intn(8)) * (slotNs / 8)
				}
				mixed(base + off)
			}
			for k := rng.Intn(6); k > 0; k-- { // small neighbours: the list sort
				mixed(base + slotNs + Time(rng.Intn(2*slotNs)))
			}
			for k := n / 8; k > 0; k-- {
				d.cancel(first + rng.Intn(n))
			}
			if rng.Intn(2) == 0 {
				d.runUntil(now + (base-now)/2)
			}
			// Behind the look-ahead frontier: before the slot, and in it.
			for k := rng.Intn(12); k > 0; k-- {
				mixed(d.s.Now() + Time(rng.Intn(int(base+slotNs-d.s.Now()))))
			}
			d.runUntil(base + Time(rng.Intn(slotNs))) // stops inside the slot
			for k := rng.Intn(12); k > 0; k-- {
				mixed(d.s.Now() + Time(rng.Intn(2*slotNs)))
			}
			for k := rng.Intn(4); k > 0; k-- {
				d.cancel(first + rng.Intn(len(d.sH)-first))
			}
			for k := rng.Intn(8); k > 0; k-- {
				d.step()
			}
			if rng.Intn(2) == 0 {
				d.runUntil(base + 3*slotNs)
			}
		}
		d.run()
		if d.s.Pending() != 0 {
			t.Fatalf("seed %d: events left pending after Run: %d", seed, d.s.Pending())
		}
		c := d.s.Counters()
		if c.MaxSlotSorted < 64 || c.OrderedInserts == 0 || c.WalkSteps == 0 {
			t.Fatalf("seed %d: mix missed a path: %+v", seed, c)
		}
		if got, want := c.WheelInserts+c.SpillInserts, d.s.Executed()+c.Cancels; got != want {
			t.Fatalf("seed %d: %d events scheduled, %d executed + cancelled", seed, got, want)
		}
		t.Logf("seed %d: %d events fired, %+v", seed, len(d.sLog), c)
	}
}
