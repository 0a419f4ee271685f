// Package eventsim implements the discrete-event simulation engine that
// everything else in this repository runs on.
//
// A Sim owns a virtual clock and a pending-event queue. Components
// schedule callbacks at absolute times (At) or relative delays (After);
// Run repeatedly pops the earliest event and invokes it, advancing the
// clock. Two events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs fully deterministic. A second,
// disjoint ordering domain exists for callers that need a tie-break
// independent of scheduling order: AtKey schedules with an explicit
// caller-built key in the upper half of the sequence space (KeyDomain
// set), so keyed events fire after every same-instant counter-sequenced
// event, ordered among themselves by key. netem ports use it to give
// packet deliveries a position that depends only on (admission time,
// port identity) — the property that lets the sharded runner
// (internal/sim) reproduce the exact global event order from per-shard
// engines.
//
// The engine is single-goroutine by design: a packet-level network
// simulation is a serial dependency chain, and determinism (exact
// reproducibility from a seed) matters more than intra-run parallelism.
// Parallelism belongs one level up, across independent runs of a
// parameter sweep.
//
// The pending queue is a calendar queue (one-level hierarchical timing
// wheel plus a sorted spill): event push/pop is the hottest path of the
// whole simulator, and almost every event is near-future — a
// serialization completion or propagation arrival within one wire
// horizon of now. Those land in O(1) wheel slots keyed by their
// distance from the clock. The minority of far-future events (RTO
// timers, fault-schedule entries, pre-scheduled flow arrivals) overflow
// to a small 4-ary heap that refills the wheel as the clock advances.
// Events scheduled for the same instant drain from one wheel slot as a
// batch, so a burst of same-timestamp deliveries pays the ordering
// machinery once, not per event. DESIGN.md §14 describes the structure
// and why it preserves the engine's determinism contract exactly.
//
// Event storage is recycled through a per-Sim freelist so steady-state
// scheduling allocates nothing: nodes are carved in blocks, released
// back when an event fires or is cancelled, and reused LIFO. Handles
// (the exported Event value) carry a generation counter so a stale
// handle to a recycled node is inert — Cancel and Scheduled on it are
// no-ops rather than acting on whatever event happens to occupy the
// node now. The freelist is a plain slice, not a sync.Pool: the engine
// is single-goroutine, and sync.Pool's GC-driven emptying would make
// reuse order (and therefore node addresses) vary across runs.
package eventsim

import (
	"fmt"
	"math/bits"

	"tlb/internal/units"
)

// Time re-exports the simulated-time type for convenience; all engine
// APIs use it.
type Time = units.Time

// maxTime is the largest representable simulated time.
const maxTime = Time(1<<63 - 1)

// Calendar-queue geometry. A slot spans 2^slotShift simulated
// nanoseconds and the wheel holds wheelSlots of them, so events within
// wheelHorizon (= wheelSlots << slotShift ≈ 1.05 ms) of the clock
// insert in O(1); everything further out spills to the heap. 512 ns
// per slot keeps slot populations near one for the dominant event mix
// (per-packet serialization at 1–10 Gbps spaces events ~1.2–12 µs
// apart), and 2048 slots cover the longest queueing backlogs the
// figure scenarios build without spilling steady-state traffic.
const (
	slotShift    = 9
	wheelSlots   = 2048 // must be a power of two
	wheelMask    = wheelSlots - 1
	wheelWords   = wheelSlots / 64
	wheelHorizon = Time(wheelSlots) << slotShift
)

// Location tags for event.where: a non-negative value is an index into
// the spill heap; the two sentinels mark wheel membership and
// not-queued.
const (
	locNone  int32 = -1
	locWheel int32 = -2
)

// event is the engine-internal node for one scheduled callback. Nodes
// live in a per-Sim freelist and are recycled; gen is bumped at every
// release so stale Event handles cannot resurrect a recycled node.
//
// Field order is part of the performance contract (layout_test.go pins
// it): the queue-walk fields — at/seq for ordering comparisons,
// next/prev for slot-list splicing, where for membership — plus gen and
// both callback words all fit in the node's first 64 bytes, so an
// insert, unlink or compare touches one cache line. Only the two-word
// arg interface spills to the second line, and it is read once, at
// dispatch.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	// next/prev link the node into its wheel slot's (at, seq)-sorted
	// list; nil while in the spill heap or free.
	next, prev *event
	// where locates the node: spill-heap index, locWheel (slot derived
	// from at), or locNone once fired or cancelled.
	where int32
	_     int32 // explicit padding: keeps gen's 8-alignment visible
	gen   uint64
	// Exactly one of fn / fnArg is set. The (fnArg, arg) pair lets hot
	// callers schedule a pre-bound function plus argument without
	// building a capturing closure per event.
	fn    func()
	fnArg func(any)
	arg   any
}

// Event is a handle to a scheduled callback. It is a value: copy it
// freely, keep it after the event fired, cancel it twice — a handle
// whose event already ran or was cancelled no longer matches its
// node's generation and every operation on it is a no-op. The zero
// value is a valid never-scheduled handle.
type Event struct {
	e   *event
	gen uint64
	at  Time
}

// At returns the time the event was scheduled for (valid even after
// the event fired; zero for the zero handle).
func (h Event) At() Time { return h.at }

// Scheduled reports whether the event is still pending.
func (h Event) Scheduled() bool { return h.e != nil && h.gen == h.e.gen }

// slot is one wheel bucket: a doubly-linked list kept sorted by
// (at, seq). All events in a slot share one absolute bucket number
// (at >> slotShift), so the list holds at most one slot-width of time.
type slot struct {
	head, tail *event
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     Time
	seq     uint64
	stopped bool
	// keyedIDs is the construction-order counter behind ReserveKeyedID.
	keyedIDs uint32
	// executed counts events run so far; useful for progress reporting
	// and for bounding runaway simulations in tests.
	executed uint64

	// wheel state. occ is the slot-occupancy bitmap scanned (from the
	// clock's slot, circularly) to find the next nonempty slot; min
	// caches the wheel's earliest event, nil meaning "unknown, rescan"
	// (count disambiguates unknown from empty).
	slots [wheelSlots]slot
	occ   [wheelWords]uint64
	count int
	min   *event
	// curBucket/horizonEnd are refreshed when the clock advances into a
	// new bucket; events at or beyond horizonEnd go to the spill. They
	// may lag the clock after a RunUntil deadline jump — that only
	// diverts inserts to the spill (still correct, marginally slower)
	// until the next fired event refreshes them.
	curBucket  int64
	horizonEnd Time

	// spill is the far-future overflow: a 4-ary implicit heap ordered
	// by (at, seq). advance migrates its head into the wheel as the
	// horizon moves past it.
	spill []*event

	// free is the recycled-node stack (LIFO, deterministic).
	free []*event
}

// eventBlock is how many nodes one freelist refill carves at once, so
// warmup pays one allocation per block instead of one per event.
const eventBlock = 64

// initialSpillCap pre-sizes the spill heap; it only holds events more
// than a wheel horizon out (timers, fault schedules, arrivals).
const initialSpillCap = 256

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{
		spill:      make([]*event, 0, initialSpillCap),
		horizonEnd: wheelHorizon,
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Executed returns the number of events that have run.
func (s *Sim) Executed() uint64 { return s.executed }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return s.count + len(s.spill) }

// NextEventAt returns the time of the earliest pending event; ok is
// false when nothing is scheduled. It exists for epoch-synchronized
// callers (the sharded runner in internal/sim): between conservative
// lookahead windows the coordinator peeks every shard's next event time
// and jumps the common window start over idle gaps instead of stepping
// through empty lookahead intervals one by one.
func (s *Sim) NextEventAt() (Time, bool) {
	e := s.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// alloc pops a recycled node, refilling the freelist with a fresh
// block when it runs dry.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	blk := make([]event, eventBlock)
	for i := range blk {
		blk[i].where = locNone
	}
	for i := eventBlock - 1; i >= 1; i-- {
		s.free = append(s.free, &blk[i])
	}
	return &blk[0]
}

// release invalidates every outstanding handle to the node and returns
// it to the freelist. Callback references are cleared so the freelist
// does not pin closures or their captures.
func (s *Sim) release(e *event) {
	e.gen++
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.where = locNone
	e.next = nil
	e.prev = nil
	s.free = append(s.free, e)
}

// KeyDomain is the bit separating caller-keyed events (AtKey) from
// counter-sequenced ones (At/AtArg). Counter sequences can never
// reach it, so the two domains share one total (time, seq) order with
// every keyed event sorting after every counter event at the same
// instant.
const KeyDomain uint64 = 1 << 63

// AtKey schedules fn(arg) at absolute time t with an explicit ordering
// key instead of the next FIFO sequence number. The key must have the
// KeyDomain bit set (checked), which places it after every
// counter-sequenced event at the same instant; among keyed events at
// one instant, smaller keys fire first. The caller owns key semantics
// and uniqueness: two pending events at the same (t, key) fire in an
// unspecified relative order. netem builds keys from (admission time,
// port index) so a delivery's position within its timestamp is a pure
// function of the traffic — identical no matter which engine instance
// (global or per-shard) schedules it.
func (s *Sim) AtKey(t Time, key uint64, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	if key&KeyDomain == 0 {
		panic(fmt.Sprintf("eventsim: AtKey key %#x outside the keyed domain", key))
	}
	return s.schedule(t, key, nil, fn, arg)
}

// ReserveKeyedID hands out consecutive small IDs in construction
// order, for components that schedule through AtKey and need a stable
// identity inside their keys. Determinism contract: IDs depend only on
// construction order, so two builds that construct the same components
// in the same order assign the same IDs — the property that makes
// AtKey ordering invariant across the sharded runner's per-shard
// engine instances, which each rebuild the full topology identically.
func (s *Sim) ReserveKeyedID() uint32 {
	v := s.keyedIDs
	s.keyedIDs++
	return v
}

func (s *Sim) schedule(t Time, seq uint64, fn func(), fnArg func(any), arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.at = t
	e.seq = seq
	e.fn = fn
	e.fnArg = fnArg
	e.arg = arg
	if t < s.horizonEnd {
		s.wheelInsert(e)
	} else {
		s.spillPush(e)
	}
	return Event{e: e, gen: e.gen, at: t}
}

// nextSeq consumes the next FIFO sequence number for an immediate
// schedule.
func (s *Sim) nextSeq() uint64 {
	v := s.seq
	s.seq++
	return v
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it is always a modelling bug, and silently
// reordering time corrupts every metric downstream.
func (s *Sim) At(t Time, fn func()) Event {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	return s.schedule(t, s.nextSeq(), fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute time t. It exists for hot paths
// that would otherwise build a capturing closure per event: a stored
// func(any) plus a pointer-typed arg costs no allocation per call.
func (s *Sim) AtArg(t Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	return s.schedule(t, s.nextSeq(), nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Sim) AfterArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return s.AtArg(s.now+d, fn, arg)
}

// Cancel removes a pending event and reports whether it was still
// pending. Cancelling an event that already ran (or was already
// cancelled) returns false and does nothing else, so callers may
// cancel timers unconditionally; the generation check makes this safe
// even after the event's node has been recycled for a different event.
func (s *Sim) Cancel(h Event) bool {
	if h.e == nil || h.gen != h.e.gen {
		return false
	}
	s.unqueue(h.e)
	s.release(h.e)
	return true
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event finishes. Pending events stay queued. A Stop issued while no
// Run is in progress is remembered: the next Run/RunUntil call returns
// immediately (consuming the Stop), so a stop decided between runs is
// not silently lost.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	s.RunUntil(maxTime)
}

// RunUntil executes events with time <= deadline, then sets the clock to
// the deadline (if it is ahead) and returns. Events beyond the deadline
// stay queued, so a later RunUntil can continue the same simulation.
// A pending Stop (from before the call or issued by an event) ends the
// call early and is consumed on return.
//
// Events sharing a timestamp dispatch as a batch: once the earliest
// event's slot is located, its same-time successors in that slot fire
// back to back without re-probing the spill or the occupancy bitmap
// (the spill cannot hold an event at the current instant — advance
// migrated everything inside the horizon — and a callback scheduling
// at the current instant sorts into the same slot, where wheelInsert
// keeps the cached min coherent, so a counter-sequenced insert that
// belongs before a still-pending keyed event is picked up in order).
func (s *Sim) RunUntil(deadline Time) {
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		t := e.at
		s.advance(t)
		s.unqueue(e)
		s.executed++
		s.invoke(e)
		for !s.stopped {
			n := s.min
			if n == nil || n.at != t {
				break
			}
			s.unqueue(n)
			s.executed++
			s.invoke(n)
		}
	}
	if !s.stopped && s.now < deadline && deadline < maxTime {
		s.now = deadline
	}
	s.stopped = false
}

// Step runs exactly one event and reports whether one was available.
// Step ignores a pending Stop (it is an explicit single-step request).
func (s *Sim) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.advance(e.at)
	s.unqueue(e)
	s.executed++
	s.invoke(e)
	return true
}

// invoke releases the node and then runs the callback, so the callback
// itself can schedule new events into the just-freed node and a
// handle's Scheduled goes false for the duration of its own callback.
func (s *Sim) invoke(e *event) {
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	s.release(e)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
}

// peek returns the earliest pending event without removing it, or nil.
// The wheel candidate comes from the cached min (rescanned on demand);
// the spill candidate is its heap head. Comparing the two is correct
// whether or not the spill head has been migrated yet.
func (s *Sim) peek() *event {
	wm := s.min
	if wm == nil && s.count > 0 {
		wm = s.rescan()
	}
	if len(s.spill) == 0 {
		return wm
	}
	sp := s.spill[0]
	if wm == nil || before(sp, wm) {
		return sp
	}
	return wm
}

// advance moves the clock to t. When t enters a new bucket the wheel
// horizon slides forward and every spill event now inside it migrates
// to its slot — this is what lets the same-timestamp batch in RunUntil
// skip spill probes, and what keeps slot lists to one bucket each.
func (s *Sim) advance(t Time) {
	s.now = t
	nb := int64(t >> slotShift)
	if nb == s.curBucket {
		return
	}
	s.curBucket = nb
	he := Time(nb+wheelSlots) << slotShift
	if he < t {
		// Near the Time overflow horizon (≈292 simulated years) the
		// wheel window cannot be represented; degrade to spill-only
		// operation, which stays correct.
		he = t
	}
	s.horizonEnd = he
	for len(s.spill) > 0 && s.spill[0].at < he {
		e := s.spill[0]
		s.spillPop()
		s.wheelInsert(e)
	}
}

// unqueue removes a queued event from whichever structure holds it.
func (s *Sim) unqueue(e *event) {
	if e.where == locWheel {
		s.wheelUnlink(e)
	} else {
		s.spillRemove(int(e.where))
	}
}

// before reports queue ordering: earlier time first, FIFO within a time.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---- wheel ----

// wheelInsert links e into its slot's sorted list. The common case —
// the newest event in its slot, because per-source schedules advance
// monotonically — appends at the tail in O(1); otherwise a backward
// walk finds the insertion point (slot populations are near one, so
// the walk is short).
func (s *Sim) wheelInsert(e *event) {
	i := int(uint64(e.at)>>slotShift) & wheelMask
	sl := &s.slots[i]
	switch {
	case sl.tail == nil:
		sl.head = e
		sl.tail = e
		s.occ[i>>6] |= 1 << (uint(i) & 63)
	case !before(e, sl.tail):
		e.prev = sl.tail
		sl.tail.next = e
		sl.tail = e
	default:
		c := sl.tail
		for c.prev != nil && before(e, c.prev) {
			c = c.prev
		}
		e.next = c
		e.prev = c.prev
		if c.prev != nil {
			c.prev.next = e
		} else {
			sl.head = e
		}
		c.prev = e
	}
	e.where = locWheel
	s.count++
	if s.min != nil && before(e, s.min) {
		s.min = e
	} else if s.count == 1 {
		s.min = e
	}
}

// wheelUnlink removes e from its slot list and keeps the cached min
// coherent: removing the min promotes its same-slot successor (the
// slot holds the wheel's earliest bucket, so the successor is the new
// global wheel min), or invalidates the cache when the slot drains.
func (s *Sim) wheelUnlink(e *event) {
	i := int(uint64(e.at)>>slotShift) & wheelMask
	sl := &s.slots[i]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sl.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sl.tail = e.prev
	}
	if sl.head == nil {
		s.occ[i>>6] &^= 1 << (uint(i) & 63)
	}
	s.count--
	if s.min == e {
		s.min = e.next // nil means "unknown": rescan on demand
	}
	e.next = nil
	e.prev = nil
	e.where = locNone
}

// rescan recomputes the cached wheel min by scanning the occupancy
// bitmap circularly from the clock's slot. Every queued wheel event
// lies within wheelSlots buckets at or after the clock's bucket, so
// the first occupied slot found is the earliest bucket and its list
// head the earliest event. Cost is a handful of word operations, paid
// only when a slot drains.
func (s *Sim) rescan() *event {
	start := int(uint64(s.now)>>slotShift) & wheelMask
	w := start >> 6
	b := uint(start & 63)
	if x := s.occ[w] & (^uint64(0) << b); x != 0 {
		s.min = s.slots[w<<6+bits.TrailingZeros64(x)].head
		return s.min
	}
	for k := 1; k <= wheelWords; k++ {
		w2 := (w + k) & (wheelWords - 1)
		if x := s.occ[w2]; x != 0 {
			s.min = s.slots[w2<<6+bits.TrailingZeros64(x)].head
			return s.min
		}
	}
	return nil
}

// ---- spill (4-ary implicit heap, far-future overflow) ----

func (s *Sim) spillPush(e *event) {
	s.spill = append(s.spill, e)
	s.up(len(s.spill) - 1)
}

// spillPop removes the heap minimum (the caller has already read it).
func (s *Sim) spillPop() {
	h := s.spill
	n := len(h) - 1
	h[0].where = locNone
	h[0] = h[n]
	h[n] = nil
	s.spill = h[:n]
	if n > 0 {
		s.down(0)
	}
}

// spillRemove deletes the element at index i.
func (s *Sim) spillRemove(i int) {
	h := s.spill
	n := len(h) - 1
	h[i].where = locNone
	if i == n {
		h[n] = nil
		s.spill = h[:n]
		return
	}
	moved := h[n]
	h[i] = moved
	moved.where = int32(i)
	h[n] = nil
	s.spill = h[:n]
	// Re-establish heap order in whichever direction is violated.
	if i > 0 && before(moved, h[(i-1)/4]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

func (s *Sim) up(i int) {
	h := s.spill
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].where = int32(i)
		i = p
	}
	h[i] = e
	e.where = int32(i)
}

func (s *Sim) down(i int) {
	h := s.spill
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to 4 children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(h[c], h[min]) {
				min = c
			}
		}
		if !before(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].where = int32(i)
		i = min
	}
	h[i] = e
	e.where = int32(i)
}

// Ticker invokes fn every period until Stop is called or the simulation
// drains. The first tick fires one period after Start.
type Ticker struct {
	sim    *Sim
	period Time
	fn     func()
	ev     Event
	tickFn func()
	active bool
}

// NewTicker creates an unstarted ticker.
func NewTicker(sim *Sim, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.tickFn = t.tick
	return t
}

// Start schedules the first tick. Starting a running ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.ev = t.sim.After(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if !t.active {
		return
	}
	t.fn()
	if t.active {
		t.ev = t.sim.After(t.period, t.tickFn)
	}
}

// Stop cancels the pending tick and deactivates the ticker. The stale
// handle kept after Stop is harmless: its generation no longer matches
// once the node is recycled, so a later Stop cannot cancel an
// unrelated event.
func (t *Ticker) Stop() {
	t.active = false
	t.sim.Cancel(t.ev)
}
