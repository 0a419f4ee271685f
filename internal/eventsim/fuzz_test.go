package eventsim

import (
	"encoding/binary"
	"testing"
)

// FuzzEventOrder interprets the input as an operation stream and plays
// it into both the calendar-queue engine and the old-heap reference,
// requiring identical fire order, clock, Executed and Pending
// throughout. The seed corpus in testdata/fuzz/FuzzEventOrder covers
// the structure's edges: same-timestamp bursts (batched dispatch),
// far-horizon spills and their migration back into the wheel,
// cancel-after-fire, keyed events sharing an instant with
// counter-sequenced ones, and deadline jumps across many empty buckets.
func FuzzEventOrder(f *testing.F) {
	// near schedules draining via steps
	f.Add([]byte{0, 0x10, 0x00, 0, 0x20, 0x00, 0, 0x08, 0x00, 4, 4, 4, 4})
	// same-timestamp burst then run-until
	f.Add([]byte{2, 0x40, 3, 2, 0x40, 3, 5, 0xff, 0x7f})
	// far spill, cancel, deadline jump migrating the survivor
	f.Add([]byte{1, 0xff, 0xff, 0x3f, 1, 0x01, 0x00, 0x20, 3, 0x00, 0x00, 5, 0xff, 0xff})
	// keyed schedules on one instant with a counter-sequenced burst
	f.Add([]byte{6, 0x40, 3, 2, 0x40, 3, 6, 0x40, 1, 5, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzEventOrder(t, data)
	})
}

// fuzzOpLimit bounds scheduled events so a large random input cannot
// turn one fuzz execution into a multi-second simulation.
const fuzzOpLimit = 2048

func fuzzEventOrder(t *testing.T, data []byte) {
	d := newDualSim(t)
	nextID := 0
	i := 0
	take := func(n int) ([]byte, bool) {
		if i+n > len(data) {
			return nil, false
		}
		b := data[i : i+n]
		i += n
		return b, true
	}
	for i < len(data) && nextID < fuzzOpLimit {
		op, _ := take(1)
		switch op[0] % 7 {
		case 0: // near-horizon schedule: 16-bit delta in slot-width units
			b, ok := take(2)
			if !ok {
				break
			}
			delta := Time(binary.LittleEndian.Uint16(b)) << (slotShift - 2)
			d.schedule(nextID, d.s.Now()+delta)
			nextID++
		case 1: // far-horizon schedule: up to ~48 horizons out
			b, ok := take(3)
			if !ok {
				break
			}
			delta := wheelHorizon + Time(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16)*1024
			d.schedule(nextID, d.s.Now()+delta)
			nextID++
		case 2: // same-timestamp burst
			b, ok := take(2)
			if !ok {
				break
			}
			at := d.s.Now() + Time(b[0])<<slotShift
			for k := int(b[1]%7) + 2; k > 0 && nextID < fuzzOpLimit; k-- {
				d.schedule(nextID, at)
				nextID++
			}
		case 3: // cancel by (possibly stale) handle index
			b, ok := take(2)
			if !ok {
				break
			}
			d.cancel(int(binary.LittleEndian.Uint16(b)))
		case 4: // single step
			d.step()
		case 5: // run to a relative deadline (can cross many empty buckets)
			b, ok := take(2)
			if !ok {
				break
			}
			d.runUntil(d.s.Now() + Time(binary.LittleEndian.Uint16(b))<<(slotShift+2))
		case 6: // keyed schedule; few distinct deltas and salts, so keyed
			// events collide with each other and with counter events
			b, ok := take(2)
			if !ok {
				break
			}
			delta := Time(b[0]) << slotShift
			d.scheduleKeyed(nextID, d.s.Now()+delta, uint64(b[1]%8))
			nextID++
		}
	}
	d.run()
	if d.s.Pending() != 0 {
		t.Fatalf("events left pending after final Run: %d", d.s.Pending())
	}
}
