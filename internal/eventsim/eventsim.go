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
// port identity), never on scheduling history.
//
// The engine is single-goroutine by design: a packet-level network
// simulation is a serial dependency chain, and determinism (exact
// reproducibility from a seed) matters more than intra-run parallelism.
// Parallelism belongs one level up, across independent runs of a
// parameter sweep.
//
// The pending queue is a calendar queue: almost every event is a
// serialization completion or propagation arrival within one wire
// horizon of now, and lands in an O(1) wheel slot kept in arrival order
// until the clock reaches it, then sorted by (at, seq) once. The few
// far-future events (RTO timers, fault entries) overflow to a 4-ary
// heap that refills the wheel as the clock advances. DESIGN.md §14
// describes the structure and why it keeps the determinism contract.
//
// Event storage is recycled through a per-Sim freelist so steady-state
// scheduling allocates nothing: nodes are carved in blocks, released
// back when an event fires or is cancelled, and reused LIFO. Handles
// (the exported Event value) carry a generation counter so a stale
// handle to a recycled node is inert — Cancel and Scheduled on it are
// no-ops rather than acting on whatever event happens to occupy the
// node now. The freelist is a plain slice, not a sync.Pool: the engine
// is single-goroutine, and sync.Pool's GC-driven emptying would make
// reuse order (and therefore node addresses) vary across runs. A netem
// port embeds its own delivery Node instead, re-armed with Arm.
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
// wheelHorizon (≈ 1.05 ms) of the clock insert in O(1); everything
// further out spills to the heap. How many events share a slot is a
// property of the fabric (about a dozen on the leaf-spine figures, 123
// on a k=16 fat-tree); the slot discipline keeps the insert cost
// independent of it, so the geometry is not tuned per topology.
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
// next/prev for slot-list splicing, where and owned for membership —
// plus gen and the callback all fit in the node's first 64 bytes, so an
// insert, unlink or compare touches one cache line. Only the arg
// interface's data word spills to the second line, and it is read once,
// at dispatch.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	// next/prev link the node into its wheel slot's list — arrival
	// order ahead of the sorted frontier, (at, seq) order at or behind
	// it; nil while in the spill heap or free.
	next, prev *event
	// where locates the node: spill-heap index, locWheel (slot derived
	// from at), or locNone once fired or cancelled.
	where int32
	// owned marks a Node: invoke does not release it to the freelist.
	owned bool
	gen   uint64
	// The callback is fn(arg): hot callers schedule a pre-bound function
	// plus the object it acts on, without a capturing closure per event;
	// At stores the caller's func() itself as arg.
	fn  func(any)
	arg any
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

// slot is one wheel bucket: a doubly-linked list of the events sharing
// one absolute bucket number (at >> slotShift), so it holds at most one
// slot-width of time. A slot ahead of the sorted frontier is in arrival
// order; one at or behind it is sorted by (at, seq).
type slot struct {
	head, tail *event
}

// insertBefore links the unlinked node e into the list ahead of c.
func (sl *slot) insertBefore(e, c *event) {
	e.next = c
	e.prev = c.prev
	if c.prev != nil {
		c.prev.next = e
	} else {
		sl.head = e
	}
	c.prev = e
}

// sortKey is one slot member's ordering key, copied inline so the
// sort-on-reach pass compares contiguous memory instead of chasing
// node pointers.
type sortKey struct {
	at  Time
	seq uint64
	e   *event
}

// Counters describe how one engine instance's queue was exercised:
// where inserts landed and what keeping the fire order cost. They are
// plain increments on paths that already write the Sim, free when
// unread. Sorts, spill diversions and frontier inserts depend on how a
// run is sliced into RunUntil windows, so the counters describe an
// execution, not the simulated system: they never feed a result.
// Every scheduled event is counted once, in WheelInserts or
// SpillInserts, so WheelInserts+SpillInserts == Executed + Cancels +
// Pending at any quiescent point.
type Counters struct {
	WheelInserts uint64 // schedules that landed in a wheel slot
	SpillInserts uint64 // schedules beyond the horizon, into the spill heap
	Migrations   uint64 // spill → wheel moves as the horizon advanced
	Cancels      uint64 // pending events removed by Cancel
	// OrderedInserts counts wheel inserts (scheduled or migrated) at or
	// behind the sorted frontier, which are placed by a backward walk
	// from the slot tail; WalkSteps sums the list steps they took.
	OrderedInserts uint64
	WalkSteps      uint64
	// SlotSorts counts reached slots that had taken an append out of
	// order and were sorted, EventsSorted their total population,
	// MaxSlotSorted the largest.
	SlotSorts     uint64
	EventsSorted  uint64
	MaxSlotSorted uint64
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
	// unsorted marks the slots ahead of the frontier that took an
	// append out of (at, seq) order and so need sorting when reached.
	unsorted [wheelWords]uint64
	count    int
	min      *event
	// frontier is the sorted frontier: the latest absolute bucket rescan
	// has reached. Every slot at or behind it is sorted (and stays so:
	// inserts there are ordered); every slot ahead of it is in arrival
	// order. It only moves forward, and only onto the earliest occupied
	// bucket, so the slots it passes over are empty. A non-nil min
	// always lies at or behind it.
	frontier int64
	// sortBuf/sortTmp are the sort-on-reach scratch, grown to the
	// largest slot seen and reused.
	sortBuf, sortTmp []sortKey
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

	ctr Counters
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

// Counters returns a copy of the engine's queue counters.
func (s *Sim) Counters() Counters { return s.ctr }

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
// function of the traffic.
func (s *Sim) AtKey(t Time, key uint64, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event function")
	}
	if key&KeyDomain == 0 {
		panic(fmt.Sprintf("eventsim: AtKey key %#x outside the keyed domain", key))
	}
	return s.schedule(t, key, fn, arg)
}

// Node is an event node its owner embeds, for a callback never pending
// twice at once. Bind it once; Arm schedules it exactly as AtKey would,
// with no handle, allocation or release, so its callback can re-arm it.
// An armed node cannot be cancelled.
type Node struct{ e event }

// Bind sets the node's callback to fn(arg), once, before the first Arm.
func (n *Node) Bind(fn func(any), arg any) {
	n.e = event{where: locNone, owned: true, fn: fn, arg: arg}
}

// Arm schedules the bound node at absolute time t with the keyed-domain
// ordering key (see AtKey). Arming a node that is still pending panics.
// It repeats schedule's insert: a shared one is a call level more.
func (s *Sim) Arm(n *Node, t Time, key uint64) {
	e := &n.e
	if key&KeyDomain == 0 || e.where != locNone || !e.owned || t < s.now {
		panic(fmt.Sprintf("eventsim: Arm at %v (now %v) with key %#x of a pending or unbound node", t, s.now, key))
	}
	e.at, e.seq = t, key
	if t < s.horizonEnd {
		s.ctr.WheelInserts++
		s.wheelInsert(e)
	} else {
		s.ctr.SpillInserts++
		s.spillPush(e)
	}
}

// ReserveKeyedID hands out consecutive small IDs in construction
// order, for components that schedule through AtKey and need a stable
// identity inside their keys. Determinism contract: IDs depend only on
// construction order, so two builds that construct the same components
// in the same order assign the same IDs and therefore the same AtKey
// ordering.
func (s *Sim) ReserveKeyedID() uint32 {
	v := s.keyedIDs
	s.keyedIDs++
	return v
}

func (s *Sim) schedule(t Time, seq uint64, fn func(any), arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc()
	e.at = t
	e.seq = seq
	e.fn = fn
	e.arg = arg
	if t < s.horizonEnd {
		s.ctr.WheelInserts++
		s.wheelInsert(e)
	} else {
		s.ctr.SpillInserts++
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
	return s.schedule(t, s.nextSeq(), callFunc, fn)
}

// callFunc is At's callback: a func value is pointer-shaped, so storing
// one in the arg interface costs no allocation.
func callFunc(fn any) { fn.(func())() }

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
	return s.schedule(t, s.nextSeq(), fn, arg)
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
	s.ctr.Cancels++
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
// at the current instant lands in the same slot: behind the sorted
// frontier whenever the cached min is set, where wheelInsert places it
// in order and keeps the min coherent, so a counter-sequenced insert
// that belongs before a still-pending keyed event is picked up in
// order; with no cached min the batch ends and peek re-establishes it).
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
// An owned Node is not released; unqueue has marked it re-armable.
func (s *Sim) invoke(e *event) {
	fn, arg := e.fn, e.arg
	if !e.owned {
		s.release(e)
	}
	fn(arg)
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
		s.ctr.Migrations++
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

// b2u is the branch-free bool-to-bit conversion (the compiler lowers
// this shape to a zero-extending move).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// before reports queue ordering: earlier time first, FIFO within a time.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---- wheel ----

// wheelInsert links e into its slot. Ahead of the sorted frontier that
// is a tail append, whatever e's key: the slot is in arrival order
// until rescan reaches it — one comparison with the old tail records
// whether there will be anything to sort — and e cannot precede the
// cached min, which lies at or behind the frontier. At or behind the
// frontier — a same-instant callback, a schedule into the slot being
// drained, a slot that RunUntil's peek reached past its deadline, spill
// migration into the current bucket — the slot is sorted
// and e is placed in (at, seq) order by a backward walk from the tail
// (after any equal key, so insertion order breaks exact ties).
func (s *Sim) wheelInsert(e *event) {
	b := int64(e.at >> slotShift)
	i := int(b) & wheelMask
	sl := &s.slots[i]
	e.where = locWheel
	s.count++
	if b > s.frontier {
		if sl.tail == nil {
			sl.head = e
			s.occ[i>>6] |= 1 << (uint(i) & 63)
			if s.count == 1 {
				// The wheel's only event: it is the min and its slot is
				// sorted as it stands, so the frontier can move onto it
				// now instead of at the next peek's rescan.
				s.min = e
				s.frontier = b
			}
		} else {
			// Branch-free: on a dense fabric the outcome is a coin toss.
			s.unsorted[i>>6] |= b2u(before(e, sl.tail)) << (uint(i) & 63)
			e.prev = sl.tail
			sl.tail.next = e
		}
		sl.tail = e
		return
	}
	s.ctr.OrderedInserts++
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
		steps := uint64(1)
		for c.prev != nil && before(e, c.prev) {
			c = c.prev
			steps++
		}
		s.ctr.WalkSteps += steps
		sl.insertBefore(e, c)
	}
	if s.min != nil && before(e, s.min) {
		s.min = e
	} else if s.count == 1 {
		s.min = e
	}
}

// wheelUnlink removes e from its slot list — O(1) whether or not the
// slot is sorted yet — and keeps the cached min coherent: removing the
// min promotes its same-slot successor (the slot holds the wheel's
// earliest bucket and is sorted, so the successor is the new global
// wheel min), or invalidates the cache when the slot drains.
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
		s.unsorted[i>>6] &^= 1 << (uint(i) & 63)
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
// the first occupied slot found is the earliest bucket; reach orders
// it if it took appends out of order, and its head is then the
// earliest event. Cost is a handful of word operations plus the one
// sort, paid only when a slot drains.
func (s *Sim) rescan() *event {
	start := int(uint64(s.now)>>slotShift) & wheelMask
	w := start >> 6
	b := uint(start & 63)
	if x := s.occ[w] & (^uint64(0) << b); x != 0 {
		s.min = s.reach(w<<6 + bits.TrailingZeros64(x))
		return s.min
	}
	for k := 1; k <= wheelWords; k++ {
		w2 := (w + k) & (wheelWords - 1)
		if x := s.occ[w2]; x != 0 {
			s.min = s.reach(w2<<6 + bits.TrailingZeros64(x))
			return s.min
		}
	}
	return nil
}

// reach moves the sorted frontier onto slot i, the wheel's earliest
// occupied one, sorting it if it lay ahead and is marked unsorted, and
// returns its head. The buckets the frontier passes over are empty, so
// "every slot at or behind the frontier is sorted" holds across the
// move.
func (s *Sim) reach(i int) *event {
	sl := &s.slots[i]
	if b := int64(sl.head.at >> slotShift); b > s.frontier {
		s.frontier = b
		if bit := uint64(1) << (uint(i) & 63); s.unsorted[i>>6]&bit != 0 {
			s.unsorted[i>>6] &^= bit
			s.sortSlot(sl)
		}
	}
	return sl.head
}

// sortSlot puts an arrival-order slot into (at, seq) order — stably, so
// events with equal keys keep their arrival order, exactly what ordered
// insertion gives them. This changes when the engine pays for
// ordering, never the order it fires in.
//
// It starts as an insertion sort on the list itself, which finishes the
// leaf-spine figures' slots of a dozen events without copying anything.
// Once its backward walks have used up listSortSteps the slot is a
// dense one: the members' keys are copied into the reused scratch,
// sorted there and the list relinked. The prefix the list pass already
// ordered is a stable rearrangement, so the result is the same either
// way.
func (s *Sim) sortSlot(sl *slot) {
	budget := listSortSteps
	n := uint64(1)
	for c := sl.head.next; c != nil; n++ {
		next := c.next
		if p := c.prev; before(c, p) {
			for p.prev != nil && before(c, p.prev) {
				p = p.prev
				budget--
			}
			if budget < 0 {
				s.sortSlotKeys(sl)
				return
			}
			// Unlink c (it has a predecessor) and put it before p.
			c.prev.next = next
			if next != nil {
				next.prev = c.prev
			} else {
				sl.tail = c.prev
			}
			sl.insertBefore(c, p)
		}
		c = next
	}
	s.countSort(n)
}

// listSortSteps bounds the backward-walk steps sortSlot spends on the
// list before switching to the key sort: enough to finish any slot of
// up to ~16 events in place.
const listSortSteps = 64

func (s *Sim) countSort(n uint64) {
	s.ctr.SlotSorts++
	s.ctr.EventsSorted += n
	s.ctr.MaxSlotSorted = max(s.ctr.MaxSlotSorted, n)
}

// sortSlotKeys is sortSlot's dense path: sort inline keys, relink.
func (s *Sim) sortSlotKeys(sl *slot) {
	keys := s.sortBuf[:0]
	for c := sl.head; c != nil; c = c.next {
		keys = append(keys, sortKey{at: c.at, seq: c.seq, e: c})
	}
	s.sortBuf = keys
	n := len(keys)
	s.countSort(uint64(n))
	if cap(s.sortTmp) < n {
		s.sortTmp = make([]sortKey, cap(keys))
	}
	keys = sortKeys(keys, s.sortTmp[:n])
	var prev *event
	for i := range keys {
		e := keys[i].e
		e.prev = prev
		if prev != nil {
			prev.next = e
		} else {
			sl.head = e
		}
		prev = e
	}
	prev.next = nil
	sl.tail = prev
}

// keyBefore is before over inline keys.
func keyBefore(a, b *sortKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sort tuning. Up to sortRun keys are insertion-sorted outright — the
// leaf-spine figures' slots, a dozen events. A larger slot's members
// still all lie within one slot width, so the low slotShift bits of at
// are the whole time key: they are first distributed over 2^scatterBits
// time buckets (a stable counting pass, free of the unpredictable
// branches a comparison sort spends most of its time on), which leaves
// the merge sort nearly-sorted input it finishes in close to one pass,
// and keeps the worst case — a slot full of one instant — O(n log n).
const (
	sortRun     = 32
	scatterBits = 7
)

// sortKeys stably sorts a by (at, seq) using tmp (same length) as the
// second buffer, and returns whichever of the two holds the result.
func sortKeys(a, tmp []sortKey) []sortKey {
	n := len(a)
	if n > sortRun {
		const shift = slotShift - scatterBits
		const mask = 1<<slotShift - 1
		var pos [1<<scatterBits + 1]uint32
		for i := range a {
			pos[(a[i].at&mask)>>shift+1]++
		}
		for b := 1; b < len(pos); b++ {
			pos[b] += pos[b-1]
		}
		for i := range a {
			b := (a[i].at & mask) >> shift
			tmp[pos[b]] = a[i]
			pos[b]++
		}
		a, tmp = tmp, a
	}
	// Bottom-up merge sort: insertion-sorted blocks of sortRun merged
	// pairwise, the buffers swapping roles each pass. A pair already in
	// order is copied, not merged.
	for lo := 0; lo < n; lo += sortRun {
		hi := min(lo+sortRun, n)
		for i := lo + 1; i < hi; i++ {
			k := a[i]
			j := i
			for j > lo && keyBefore(&k, &a[j-1]) {
				a[j] = a[j-1]
				j--
			}
			a[j] = k
		}
	}
	for w := sortRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid := min(lo+w, n)
			hi := min(lo+2*w, n)
			if mid == hi || !keyBefore(&a[mid], &a[mid-1]) {
				copy(tmp[lo:hi], a[lo:hi])
				continue
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if keyBefore(&a[j], &a[i]) {
					tmp[k] = a[j]
					j++
				} else {
					tmp[k] = a[i]
					i++
				}
				k++
			}
			k += copy(tmp[k:], a[i:mid])
			copy(tmp[k:], a[j:hi])
		}
		a, tmp = tmp, a
	}
	return a
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
