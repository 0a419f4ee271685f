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
// it): every field fits in the node's first 64 bytes. The wheel and
// the spill keep their own copies of at and seq, so the engine touches
// a node's one line to queue it and to run it, not to order it.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal times
	// where locates the node: spill-heap index, locWheel (a key in the
	// slot derived from at), or locNone once fired or cancelled.
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

// slot is one wheel bucket: the keys of the events sharing one
// absolute bucket number (at >> slotShift), so it holds at most one
// slot-width of time, in a buffer the slot borrows from the engine
// while it is occupied (nil while empty). A slot ahead of the sorted
// frontier holds its keys in arrival order; one at or behind it holds
// them sorted by (at, seq). Only the min slot fires, from the engine's
// cursor: its keys before Sim.cur have run.
type slot []sortKey

// sortKey is one slot member: its ordering key, copied inline so that
// ordering, sorting and firing read contiguous memory instead of nodes
// spread over the fabric's ports, and its node, read only to run it.
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
	// behind the sorted frontier, which are placed in their slot's
	// sorted keys by a binary search; WalkSteps sums the keys they moved
	// to make room (an insert at the end moves none).
	OrderedInserts uint64
	WalkSteps      uint64
	// SlotSorts counts the slots of two or more keys that were sorted
	// when the frontier reached them, EventsSorted their total
	// population, MaxSlotSorted the largest.
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
	// clock's slot, circularly) to find the next nonempty slot; minSlot
	// caches the slot whose key at the cursor cur is the wheel's earliest
	// event, -1 meaning "unknown, rescan" (count disambiguates unknown
	// from empty). Only the min slot has fired keys: a slot that has
	// fired holds the clock's bucket, so no insert can precede it, and
	// it stays the min until it drains, which resets cur.
	slots   [wheelSlots]slot
	occ     [wheelWords]uint64
	count   int
	minSlot int
	cur     int
	// frontier is the sorted frontier: the latest absolute bucket rescan
	// has reached. Every slot at or behind it is sorted (and stays so:
	// inserts there are ordered); every slot ahead of it is in arrival
	// order. It only moves forward, and only onto the earliest occupied
	// bucket, so the slots it passes over are empty. A known minSlot
	// always lies at or behind it.
	frontier int64
	// spare stacks the idle key buffers: a slot takes the last one
	// returned when it becomes occupied and gives it back when it
	// drains, so live key memory is bounded by the slots occupied at
	// once, each buffer by the densest slot it has held.
	spare []slot
	// sortTmp is the sort-on-reach scratch, grown to the largest slot
	// seen and reused.
	sortTmp []sortKey
	// curBucket/horizonEnd are refreshed when the clock advances into a
	// new bucket; events at or beyond horizonEnd go to the spill. They
	// may lag the clock after a RunUntil deadline jump — that only
	// diverts inserts to the spill (still correct, marginally slower)
	// until the next fired event refreshes them.
	curBucket  int64
	horizonEnd Time

	// spill is the far-future overflow: a 4-ary implicit heap of keys,
	// ordered by (at, seq). advance migrates its head into the wheel as
	// the horizon moves past it.
	spill []sortKey

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
		spill:      make([]sortKey, 0, initialSpillCap),
		horizonEnd: wheelHorizon,
		minSlot:    -1,
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
// it to the freelist; whatever dequeued it has marked it locNone.
// Callback references are cleared so the freelist does not pin
// closures or their captures.
func (s *Sim) release(e *event) {
	e.gen++
	e.fn = nil
	e.arg = nil
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
	e := h.e
	if e == nil || h.gen != e.gen {
		return false
	}
	s.ctr.Cancels++
	if e.where == locWheel {
		s.wheelRemove(e)
	} else {
		s.spillRemove(int(e.where))
	}
	s.release(e)
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
func (s *Sim) RunUntil(deadline Time) {
	for !s.stopped {
		e := s.next(deadline)
		if e == nil {
			break
		}
		s.executed++
		s.invoke(e)
	}
	if !s.stopped && s.now < deadline && deadline < maxTime {
		s.now = deadline
	}
	s.stopped = false
}

// Step runs exactly one event and reports whether one was available.
// Step ignores a pending Stop (it is an explicit single-step request).
func (s *Sim) Step() bool {
	e := s.next(maxTime)
	if e == nil {
		return false
	}
	s.executed++
	s.invoke(e)
	return true
}

// invoke releases the node and then runs the callback, so the callback
// itself can schedule new events into the just-freed node and a
// handle's Scheduled goes false for the duration of its own callback.
// An owned Node is not released; its dequeue has marked it re-armable.
func (s *Sim) invoke(e *event) {
	fn, arg := e.fn, e.arg
	if !e.owned {
		s.release(e)
	}
	fn(arg)
}

// next removes the earliest pending event and moves the clock to it, or
// returns nil if none is due by deadline. The wheel's candidate is the
// cursor key of the cached min slot (rescanned on demand), the spill's
// its heap head; comparing the two is correct whether or not the spill
// head has been migrated yet. Events at one instant thus fire from the
// min slot's cursor one after the other, each with one comparison
// against the spill head's key: a callback's same-instant insert lands
// behind the cursor in (at, seq) order, so a counter-sequenced event
// that belongs before a still-pending keyed one is picked up in order.
//
// A wheel event leaves its slot before the clock moves: advance's
// migrations land behind it in (at, seq) order, so the cursor key stays
// the wheel's earliest. Popping it touches the next key's node, so that
// the line the next dispatch reads loads while this one runs.
func (s *Sim) next(deadline Time) *event {
	if s.minSlot < 0 {
		if s.count == 0 {
			return s.nextSpill(deadline)
		}
		s.rescan()
	}
	i := s.minSlot
	keys := s.slots[i]
	k := &keys[s.cur]
	if len(s.spill) > 0 && keyBefore(&s.spill[0], k) {
		return s.nextSpill(deadline)
	}
	t := k.at
	if t > deadline {
		return nil
	}
	e := k.e
	s.cur++
	s.count--
	if s.cur == len(keys) {
		s.drain(i)
	} else {
		_ = *keys[s.cur].e
	}
	e.where = locNone
	s.advance(t)
	return e
}

// nextSpill is next when the spill head comes first. Moving the clock
// into its bucket usually migrates it, and it then leaves the wheel.
func (s *Sim) nextSpill(deadline Time) *event {
	if len(s.spill) == 0 || s.spill[0].at > deadline {
		return nil
	}
	e := s.spill[0].e
	s.advance(e.at)
	if e.where == locWheel {
		s.wheelRemove(e)
	} else {
		s.spillPop()
	}
	return e
}

// advance moves the clock to t. When t enters a new bucket the wheel
// horizon slides forward and every spill event now inside it migrates
// to its slot — this is what keeps slots to one bucket each.
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
		e := s.spill[0].e
		s.spillPop()
		s.ctr.Migrations++
		s.wheelInsert(e)
	}
}

// keyBefore reports queue ordering: earlier time first, FIFO within a
// time.
func keyBefore(a, b *sortKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ---- wheel ----

// wheelInsert adds e's key to its slot, which borrows a buffer if it
// was empty. Ahead of the sorted frontier that is an append, whatever
// the key: the slot is in arrival order until rescan reaches it, and e
// cannot precede the cached min, which lies at or behind the frontier.
// At or behind the frontier — a same-instant callback, a schedule into
// the slot being drained, a slot that RunUntil's next reached past its
// deadline, spill migration into the current bucket — the slot is
// sorted and insertSorted places the key in order.
func (s *Sim) wheelInsert(e *event) {
	b := int64(e.at >> slotShift)
	i := int(b) & wheelMask
	sl := &s.slots[i]
	e.where = locWheel
	s.count++
	if *sl == nil {
		*sl = s.takeBuf()
		s.occ[i>>6] |= 1 << (uint(i) & 63)
	}
	k := sortKey{at: e.at, seq: e.seq, e: e}
	if b > s.frontier {
		if len(*sl) == 0 && s.count == 1 {
			// The wheel's only event: it is the min and its slot is
			// sorted as it stands, so the frontier can move onto it
			// now instead of at the next rescan.
			s.minSlot = i
			s.frontier = b
		}
		*sl = append(*sl, k)
		return
	}
	s.ctr.OrderedInserts++
	lo := 0
	if i == s.minSlot {
		lo = s.cur
	}
	s.insertSorted(sl, lo, k)
	if s.minSlot >= 0 {
		// Inside the min slot the key at the cursor is the min whatever
		// moved; a key before it elsewhere opened an earlier bucket.
		if i != s.minSlot && keyBefore(&k, &s.slots[s.minSlot][s.cur]) {
			s.minSlot = i
		}
	} else if s.count == 1 {
		s.minSlot = i
	}
}

// insertSorted places k among the sorted pending keys (*sl)[lo:], after
// any equal key (insertion order breaks exact ties). A key at or past
// the last is appended. Otherwise a binary search finds its place and
// the shorter side moves: the pending keys before it shift down into
// the fired prefix if there is room, or those after it shift up.
func (s *Sim) insertSorted(sl *slot, lo int, k sortKey) {
	keys := *sl
	n := len(keys)
	if lo == n || !keyBefore(&k, &keys[n-1]) {
		*sl = append(keys, k)
		return
	}
	j, hi := lo, n-1 // the first key after k lies in [j, hi]
	for j < hi {
		m := int(uint(j+hi) >> 1)
		if keyBefore(&k, &keys[m]) {
			hi = m
		} else {
			j = m + 1
		}
	}
	if lo > 0 && j-lo < n-j {
		copy(keys[lo-1:], keys[lo:j])
		keys[j-1] = k
		s.cur--
		s.ctr.WalkSteps += uint64(j - lo)
		return
	}
	keys = append(keys, sortKey{})
	copy(keys[j+1:], keys[j:n])
	keys[j] = k
	*sl = keys
	s.ctr.WalkSteps += uint64(n - j)
}

// wheelRemove deletes e's key from its slot: a scan of the slot's
// pending keys, then the keys after it shift down. Cancels are rare
// (mostly transport timers), so no node records its key's position.
// The key at the cursor stays the min, unless the slot drains.
func (s *Sim) wheelRemove(e *event) {
	i := int(uint64(e.at)>>slotShift) & wheelMask
	sl := &s.slots[i]
	lo := 0
	if i == s.minSlot {
		lo = s.cur
	}
	j := lo
	for (*sl)[j].e != e {
		j++
	}
	*sl = append((*sl)[:j], (*sl)[j+1:]...)
	s.count--
	e.where = locNone
	if len(*sl) == lo {
		s.drain(i)
	}
}

// takeBuf lends an empty key buffer: the last one returned, or a new
// one.
func (s *Sim) takeBuf() slot {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return b
	}
	return make(slot, 0, initialSlotCap)
}

// initialSlotCap sizes a new key buffer for a leaf-spine slot; a denser
// one grows it, and it keeps that size for the slots it serves next.
const initialSlotCap = 16

// drain empties slot i, which has no pending key left: its buffer goes
// back on the stack and the slot leaves the occupancy bitmap; if it was
// the min slot, the min is unknown and the cursor is reset.
func (s *Sim) drain(i int) {
	s.spare = append(s.spare, s.slots[i][:0])
	s.slots[i] = nil
	s.occ[i>>6] &^= 1 << (uint(i) & 63)
	if s.minSlot == i {
		s.minSlot = -1
		s.cur = 0
	}
}

// rescan recomputes the cached min slot by scanning the occupancy
// bitmap circularly from the clock's slot. Every queued wheel event
// lies within wheelSlots buckets at or after the clock's bucket, so
// the first occupied slot found is the earliest bucket; reach orders
// it, and its first key is then the earliest event. Cost is a handful
// of word operations plus the one sort, paid only when a slot drains.
func (s *Sim) rescan() {
	start := int(uint64(s.now)>>slotShift) & wheelMask
	w := start >> 6
	b := uint(start & 63)
	if x := s.occ[w] & (^uint64(0) << b); x != 0 {
		s.reach(w<<6 + bits.TrailingZeros64(x))
		return
	}
	for k := 1; k <= wheelWords; k++ {
		w2 := (w + k) & (wheelWords - 1)
		if x := s.occ[w2]; x != 0 {
			s.reach(w2<<6 + bits.TrailingZeros64(x))
			return
		}
	}
}

// reach moves the sorted frontier onto slot i, the wheel's earliest
// occupied one, sorting it if it lay ahead, and caches it as the min
// slot (the cursor is 0: the last min slot drained). The buckets the
// frontier passes over are empty, so "every slot at or behind the
// frontier is sorted" holds across the move.
func (s *Sim) reach(i int) {
	keys := s.slots[i]
	if b := int64(keys[0].at >> slotShift); b > s.frontier {
		s.frontier = b
		if len(keys) > 1 {
			s.sortSlot(&s.slots[i])
		}
	}
	s.minSlot = i
}

// sortSlot puts an arrival-order slot into (at, seq) order — stably, so
// events with equal keys keep their arrival order, exactly what ordered
// insertion gives them. This changes when the engine pays for
// ordering, never the order it fires in. A result that sortKeys leaves
// in the scratch is not copied back: the slot keeps the scratch, and
// its old buffer becomes the scratch.
func (s *Sim) sortSlot(sl *slot) {
	keys := *sl
	n := len(keys)
	s.ctr.SlotSorts++
	s.ctr.EventsSorted += uint64(n)
	s.ctr.MaxSlotSorted = max(s.ctr.MaxSlotSorted, uint64(n))
	if cap(s.sortTmp) < n {
		s.sortTmp = make([]sortKey, cap(keys))
	}
	if out := sortKeys(keys, s.sortTmp[:n]); &out[0] != &keys[0] {
		*sl, s.sortTmp = out, keys
	}
}

// Sort tuning. Up to sortRun keys are ranked outright (rankKeys) — the
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
	if n <= sortRun {
		rankKeys(a, tmp)
		return tmp
	}
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
	// Bottom-up merge sort: insertion-sorted blocks of sortRun merged
	// pairwise, the buffers swapping roles each pass. A pair already in
	// order is copied, not merged.
	for lo := 0; lo < n; lo += sortRun {
		hi := min(lo+sortRun, n)
		for i := lo + 1; i < hi; i++ {
			if !keyBefore(&a[i], &a[i-1]) {
				continue
			}
			k := a[i]
			j := i - 1
			a[i] = a[j]
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

// rankKeys stably sorts the at most sortRun keys of a into tmp: each
// key's rank is how many keys go before it, counted with branch-free
// comparisons. Arrival order in a slot is close to random, so an
// insertion sort mispredicts about one branch per key; on the
// leaf-spine figures' slots the n²/2 comparisons cost less than that.
func rankKeys(a, tmp []sortKey) {
	var rank [sortRun]uint8
	for i := 1; i < len(a); i++ {
		k := a[i]
		var r uint8
		for j := range a[:i] {
			// k goes before a[j], which arrived first, only if it is
			// strictly earlier.
			b := bit(k.at < a[j].at) | bit(k.at == a[j].at)&bit(k.seq < a[j].seq)
			rank[j] += b
			r += 1 - b
		}
		rank[i] = r
	}
	for i := range a {
		tmp[rank[i]] = a[i]
	}
}

// bit is the branch-free bool-to-bit conversion (the compiler lowers
// this shape to a set-on-condition).
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ---- spill (4-ary implicit heap of keys, far-future overflow) ----

func (s *Sim) spillPush(e *event) {
	s.spill = append(s.spill, sortKey{at: e.at, seq: e.seq, e: e})
	s.up(len(s.spill) - 1)
}

// spillPop removes the heap minimum (the caller has already read it).
func (s *Sim) spillPop() { s.spillRemove(0) }

// spillRemove deletes the element at index i.
func (s *Sim) spillRemove(i int) {
	h := s.spill
	n := len(h) - 1
	h[i].e.where = locNone
	moved := h[n]
	h[n] = sortKey{}
	s.spill = h[:n]
	if i == n {
		return
	}
	h[i] = moved
	// Re-establish heap order in whichever direction is violated.
	if i > 0 && keyBefore(&moved, &h[(i-1)/4]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

func (s *Sim) up(i int) {
	h := s.spill
	k := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !keyBefore(&k, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.where = int32(i)
		i = p
	}
	h[i] = k
	k.e.where = int32(i)
}

func (s *Sim) down(i int) {
	h := s.spill
	n := len(h)
	k := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to 4 children.
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if keyBefore(&h[c], &h[min]) {
				min = c
			}
		}
		if !keyBefore(&h[min], &k) {
			break
		}
		h[i] = h[min]
		h[i].e.where = int32(i)
		i = min
	}
	h[i] = k
	k.e.where = int32(i)
}
