package netem

// PacketPool recycles Packet structs so the steady-state packet path —
// one Packet per data segment and per ACK, millions per run — stops
// allocating. It is deliberately NOT a sync.Pool: sync.Pool empties on
// GC at nondeterministic points, which would make reuse order (and any
// behaviour accidentally coupled to it) vary across otherwise
// identical runs. This pool is a plain LIFO stack owned by one
// simulation; the engine is single-goroutine, so no locking is needed
// and reuse order is a pure function of the event schedule.
//
// Ownership contract (see DESIGN.md "Engine performance"):
//
//   - The transport endpoint that creates a packet (Get) owns it until
//     it hands it to the network (Port.Send via the fabric).
//   - While queued/in flight the owning Port holds it, chained into
//     its FIFO through the packet's own linkage fields and marked
//     queued: sending it on a second port, or releasing it, panics.
//   - The packet terminates — and MUST be released (Put) — at exactly
//     one of three sinks: the receiving Host after dispatching it to
//     an endpoint, the switch that observed Port.Send refuse it
//     (buffer or fault drop), or nowhere if the run ends with it in
//     flight (the pool dies with the run).
//
// Endpoint handlers must therefore never retain a *Packet beyond the
// handler call; they copy out the fields they need (the receiver's
// out-of-order buffer stores (seq, len) pairs, not packets).
//
// The pool is required: every host and the fabric of a run share one.
// Without it a spraying run allocates a packet per segment and per ACK
// (DESIGN.md §11 gives the measured cost).
type PacketPool struct {
	free []*Packet
	// allocated counts pool misses (fresh Packet allocations);
	// recycled counts Get hits. For tests and instrumentation.
	allocated int64
	recycled  int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed Packet, recycling a released one when possible.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.recycled++
		*p = Packet{}
		return p
	}
	pp.allocated++
	return &Packet{}
}

// Put releases a packet back to the pool. The caller must be the
// packet's terminating sink: releasing a packet something else still
// holds corrupts the simulation (the same struct would be two packets
// at once). Double-Put panics — it is always an ownership bug — and so
// does releasing a packet a port still has queued. To is cleared here,
// not at the next Get, so idle packets do not pin finished flows.
func (pp *PacketPool) Put(p *Packet) {
	if p.pooled {
		panic("netem: packet released to pool twice")
	}
	if p.queued {
		panic("netem: packet released to pool while still queued")
	}
	p.pooled = true
	p.To = nil
	pp.free = append(pp.free, p)
}

// Allocated returns how many Gets missed the pool (fresh allocations).
func (pp *PacketPool) Allocated() int64 { return pp.allocated }

// Recycled returns how many Gets were served from the pool.
func (pp *PacketPool) Recycled() int64 { return pp.recycled }

// Idle returns how many released packets are currently pooled.
func (pp *PacketPool) Idle() int { return len(pp.free) }
