package transport

// FlowPool recycles a run's flow objects — both endpoints of a flow
// and the record they share — the way netem.PacketPool recycles
// packets, so a run allocates per open flow rather than per flow. It is
// a plain LIFO stack owned by one simulation, never a sync.Pool: reuse
// order is a pure function of the event schedule.
//
// Lifecycle (see DESIGN.md "Engine performance"): Open takes a flow
// from the source host's pool; the sender completes, cancelling its
// RTO timer, and calls the done callback, which folds the record (a
// caller that keeps the record copies it there) and asks the
// receiver's host to close it after the teardown lag; the
// flow goes back to the pool at the last of three events — the done
// callback's return, the receiver's close, the firing of a delayed-ACK
// timer still pending at the close.
//
// After that only a packet still in flight can reach the flow's
// memory, through a To that may by then name another flow's endpoint.
// Host.Receive ignores a packet whose Flow.Port (the flow's arrival
// index, unique within a run) no longer matches the endpoint's, which
// is exactly what the finished sender or closed receiver it was
// addressed to would have done.
//
// The zero value is an empty pool. The pool is required: every host of
// a run shares one. Without it a run allocates every flow it opens and
// holds more memory at its peak (DESIGN.md §11 gives the measured cost).
type FlowPool struct {
	free []*flow
	// allocated counts pool misses (fresh flow allocations); recycled
	// counts Open hits. For tests and instrumentation.
	allocated int64
	recycled  int64
}

// flow is one flow as allocated: both endpoints, each pointing at the
// other, and the record they share.
type flow struct {
	snd Sender
	rcv Receiver
	rec FlowStats

	pool *FlowPool
	// settled is set once the done callback has returned: the fold has
	// read the record and the runner has asked for the receiver's close.
	settled bool
	// pooled marks an idle flow, so a second release panics.
	pooled bool
}

// get returns a zeroed flow, recycling an idle one when possible.
func (fp *FlowPool) get() *flow {
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free[n-1] = nil
		fp.free = fp.free[:n-1]
		fp.recycled++
		*f = flow{pool: fp}
		return f
	}
	fp.allocated++
	return &flow{pool: fp}
}

// release returns f to its pool once nothing but stale packets can
// reach it: the done callback has returned, the receiver is closed and
// no delayed-ACK timer is pending (the sender's RTO timer was cancelled
// at completion). Each of those three events calls it; only the last
// releases.
func (f *flow) release() {
	if !f.settled || !f.rcv.closed || f.rcv.ackTimer.Scheduled() {
		return
	}
	if f.pooled {
		panic("transport: flow released to pool twice")
	}
	f.pooled = true
	f.pool.free = append(f.pool.free, f)
}

// Allocated returns how many Opens missed the pool (fresh allocations).
func (fp *FlowPool) Allocated() int64 { return fp.allocated }

// Recycled returns how many Opens were served from the pool.
func (fp *FlowPool) Recycled() int64 { return fp.recycled }

// Idle returns how many released flows are currently pooled.
func (fp *FlowPool) Idle() int { return len(fp.free) }
