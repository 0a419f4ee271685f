package eventsim

import "fmt"

// refSim is the engine this package shipped before the calendar queue:
// a single 4-ary implicit heap ordered by (at, seq). It is kept as a
// test-only reference implementation — the differential oracle in
// diff_test.go and FuzzEventOrder drive refSim and Sim through the
// same operation streams and require identical fire order, Executed,
// Pending and Now. The heap code is the old implementation verbatim
// (minus the freelist: the oracle does not need recycling, and leaving
// it out keeps the reference obviously correct).
type refSim struct {
	now      Time
	heap     []*refEvent
	seq      uint64
	stopped  bool
	executed uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	heap int32 // index in the heap, -1 once popped or cancelled
}

// refHandle mirrors Event for the reference engine. Nodes are never
// recycled, so "fired or cancelled" is simply heap == -1.
type refHandle struct {
	e *refEvent
}

func (h refHandle) Scheduled() bool { return h.e != nil && h.e.heap >= 0 }

func newRefSim() *refSim { return &refSim{} }

func (s *refSim) Now() Time        { return s.now }
func (s *refSim) Executed() uint64 { return s.executed }
func (s *refSim) Pending() int     { return len(s.heap) }
func (s *refSim) Stop()            { s.stopped = true }

func (s *refSim) At(t Time, fn func()) refHandle {
	s.seq++
	return s.scheduleSeq(t, s.seq-1, fn)
}

// AtKey mirrors Sim.AtKey: the key is the event's seq, and the
// KeyDomain bit sorts it after every counter-sequenced event.
func (s *refSim) AtKey(t Time, key uint64, fn func()) refHandle {
	if key&KeyDomain == 0 {
		panic("refsim: AtKey key outside the keyed domain")
	}
	return s.scheduleSeq(t, key, fn)
}

func (s *refSim) scheduleSeq(t Time, seq uint64, fn func()) refHandle {
	if t < s.now {
		panic(fmt.Sprintf("refsim: scheduling at %v before now %v", t, s.now))
	}
	e := &refEvent{at: t, seq: seq, fn: fn, heap: -1}
	s.push(e)
	return refHandle{e: e}
}

func (s *refSim) Cancel(h refHandle) bool {
	if h.e == nil || h.e.heap < 0 {
		return false
	}
	s.remove(int(h.e.heap))
	h.e.heap = -1
	return true
}

func (s *refSim) Run() { s.RunUntil(maxTime) }

func (s *refSim) RunUntil(deadline Time) {
	for len(s.heap) > 0 && !s.stopped {
		e := s.heap[0]
		if e.at > deadline {
			break
		}
		s.popHead()
		s.now = e.at
		s.executed++
		e.fn()
	}
	if !s.stopped && s.now < deadline && deadline < maxTime {
		s.now = deadline
	}
	s.stopped = false
}

func (s *refSim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	s.popHead()
	s.now = e.at
	s.executed++
	e.fn()
	return true
}

func refBefore(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *refSim) push(e *refEvent) {
	s.heap = append(s.heap, e)
	s.up(len(s.heap) - 1)
}

func (s *refSim) popHead() {
	h := s.heap
	n := len(h) - 1
	h[0].heap = -1
	h[0] = h[n]
	h[n] = nil
	s.heap = h[:n]
	if n > 0 {
		s.down(0)
	}
}

func (s *refSim) remove(i int) {
	h := s.heap
	n := len(h) - 1
	h[i].heap = -1
	if i == n {
		h[n] = nil
		s.heap = h[:n]
		return
	}
	moved := h[n]
	h[i] = moved
	moved.heap = int32(i)
	h[n] = nil
	s.heap = h[:n]
	if i > 0 && refBefore(moved, h[(i-1)/4]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

func (s *refSim) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !refBefore(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heap = int32(i)
		i = p
	}
	h[i] = e
	e.heap = int32(i)
}

func (s *refSim) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if refBefore(h[c], h[min]) {
				min = c
			}
		}
		if !refBefore(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].heap = int32(i)
		i = min
	}
	h[i] = e
	e.heap = int32(i)
}
