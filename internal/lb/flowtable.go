package lb

import (
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// FlowTable is the per-switch flow table every table-keeping scheme
// uses: a row of scheme state F per flow, stamped with the instant the
// flow was last seen. Rows live densely in one slice behind an index
// map and are removed by moving the last row into the hole, so the
// order Evict visits them in is a function of the table's own
// insert/remove history — never of map iteration — and a sweep
// neither sorts nor allocates. A *F is valid until the next insert or
// removal.
type FlowTable[F any] struct {
	index map[netem.FlowID]int32
	rows  []flowRow[F]
}

type flowRow[F any] struct {
	id   netem.FlowID
	seen units.Time
	val  F
}

// NewFlowTable returns an empty table.
func NewFlowTable[F any]() FlowTable[F] {
	return FlowTable[F]{index: make(map[netem.FlowID]int32)}
}

// Len returns the number of flows in the table.
func (t *FlowTable[F]) Len() int { return len(t.rows) }

// Get returns the flow's row, inserting a zero one when the flow is
// not in the table (fresh), and stamps it as seen now. prev is the
// stamp it replaces: the flowlet schemes compare the gap since the
// previous packet before it is overwritten. The flow is named by
// pointer (&pkt.Flow) because this is every table-keeping scheme's
// per-packet path: the map then hashes the packet's own bytes, where a
// by-value FlowID is first stored word by word and the hash's wide
// loads stall on those stores (2x on a whole presto decision).
func (t *FlowTable[F]) Get(id *netem.FlowID, now units.Time) (f *F, prev units.Time, fresh bool) {
	i, ok := t.index[*id]
	if !ok {
		i = int32(len(t.rows))
		t.rows = append(t.rows, flowRow[F]{id: *id})
		t.index[*id] = i
	}
	r := &t.rows[i]
	prev, r.seen = r.seen, now
	return &r.val, prev, !ok
}

// Remove deletes the flow's row (on FIN); an absent flow is a no-op.
func (t *FlowTable[F]) Remove(id *netem.FlowID) {
	if i, ok := t.index[*id]; ok {
		t.removeAt(i)
	}
}

func (t *FlowTable[F]) removeAt(i int32) {
	last := int32(len(t.rows) - 1)
	delete(t.index, t.rows[i].id)
	if i != last {
		t.rows[i] = t.rows[last]
		t.index[t.rows[i].id] = i
	}
	t.rows[last] = flowRow[F]{}
	t.rows = t.rows[:last]
}

// Evict visits every row once, in table order, and removes those evict
// returns true for; idle is how long ago the row was last seen. evict
// is both the scheme's idle predicate and its chance to account for
// the row it gives up (TLB's short/long counts).
func (t *FlowTable[F]) Evict(now units.Time, evict func(f *F, idle units.Time) bool) {
	for i := 0; i < len(t.rows); {
		if r := &t.rows[i]; evict(&r.val, now-r.seen) {
			t.removeAt(int32(i))
		} else {
			i++
		}
	}
}

// sweptTable is the flow table of the table-keeping baselines: a
// FlowTable that reclaims idle rows on its own timer. FIN removes a
// finished flow's row, but a FIN lost at a faulted queue and a
// reverse-direction pure-ACK stream (which never carries FIN) would
// otherwise leak theirs for the whole run. The owner calls arm on every
// insert (at the call site, so that Get stays inlined in its Pick); the
// sweep fires one period later, evicts the idle rows and re-arms only
// while the table is non-empty, so a drained simulation has no pending
// balancer events and Run() terminates.
type sweptTable[F any] struct {
	FlowTable[F]
	sim    *eventsim.Sim
	period units.Time
	idle   func(f *F, idle units.Time) bool
	armed  bool
}

func newSweptTable[F any](sim *eventsim.Sim, period units.Time, idle func(f *F, idle units.Time) bool) *sweptTable[F] {
	return &sweptTable[F]{FlowTable: NewFlowTable[F](), sim: sim, period: period, idle: idle}
}

func (s *sweptTable[F]) arm() {
	if !s.armed {
		s.armed = true
		s.sim.After(s.period, s.sweep)
	}
}

func (s *sweptTable[F]) sweep() {
	s.armed = false
	s.Evict(s.sim.Now(), s.idle)
	if s.Len() > 0 {
		s.arm()
	}
}
