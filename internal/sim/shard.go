// Sharding: N run cores (core.go) over one topology.Partition, each on
// its own goroutine, synchronized here.
//
// Each core builds its OWN complete copy of the network and hosts
// (identical construction, same seed, so RNG consumption matches the
// lone-core run exactly) but drives only the components its partition
// owns: flows open where their endpoints live, boundary egress ports
// capture crossing packets as value handoffs (topology.Sharder), and
// unowned switches simply never see traffic.
//
// Synchronization is conservative lookahead (Chandy–Misra–Bryant
// windows): the minimum propagation delay L over all shard-boundary
// links bounds how far any shard may run ahead, because a packet
// admitted at time t cannot arrive in another shard before t + L.
// The coordinator runs fixed-width windows [start, start+L): every
// shard executes its events through the window, then all exchange
// handoffs and completion messages at a barrier. A handoff emitted
// inside a window is therefore always delivered in a strictly later
// one — never in a shard's past. Window *starts* jump over idle gaps
// (to the earliest pending event or handoff anywhere) so a quiet
// simulation does not pay L-sized steps; window *width* never exceeds
// L, which is what preserves causality.
//
// Determinism: every delivery — local or handed off — is scheduled in
// the engine's keyed domain under netem.DeliveryKey(admission time,
// port index), a pure function of traffic and topology, so two events
// colliding on one nanosecond order identically whether they met on
// one engine or arrived across a boundary (each epoch's incoming
// handoffs are additionally sorted with topology.HandoffBefore — the
// same (DeliverAt, AdmittedAt, SrcPort) order — before being
// scheduled). Flow teardown obeys the same finite-latency rule as
// packets: a sender's completion closes its receiver via a keyed event
// at completion + lag (teardownLag, ≥ the window width), which a
// cross-shard closeMsg delivered at the next barrier re-creates
// exactly. Everything shards exchange is a value — no mutable memory
// is shared between shard goroutines, and packet pool ownership never
// crosses one (packetown stays clean).
//
// Exactness: with MaxTime-bounded runs every counter, flow record,
// sample and series bucket of the lone-core run is reproduced. Two
// bounded divergences remain, both properties of running in windows
// and deterministic for a given shard count: (1) under StopWhenDone,
// shards finish the last window after the final completion, so packets
// still draining can bump port/drop counters a lone core — which stops
// at the completion itself — never executed (flow records are
// unaffected: all senders have completed, and every receiver froze its
// stats at payload completion); (2) streaming-stats mean/variance fold
// in barrier order, identical across runs of the same shard count but
// rounding-different across counts (counters and the quantile sketch
// merge exactly). The golden and figure-identity tests in
// internal/experiments pin byte-identical CSV output on every
// acceptance figure.
package sim

import (
	"fmt"
	"sort"
	"sync"

	"tlb/internal/faults"
	"tlb/internal/netem"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// closeMsg carries a cross-shard flow completion from the sender's
// shard to the receiver's: the destination folds or snapshots the
// merged record and schedules the receiver teardown at its keyed
// position (see applyCloses). Applied at barriers in (at, idx) order.
type closeMsg struct {
	idx      int   // global flow index
	dstShard int32 // shard owning the receiver
	at       units.Time
	short    bool
	sender   transport.FlowStats // sender-half record, by value
}

// shardEpochIn is one window's work order for a shard.
type shardEpochIn struct {
	deadline units.Time
	handoffs []topology.Handoff // due this window, sorted by HandoffBefore
	closes   []closeMsg         // sorted by (at, idx)
}

// shardEpochOut is a shard's barrier report.
type shardEpochOut struct {
	handoffs  []topology.Handoff // emitted this window
	dones     []closeMsg         // cross-shard completions this window
	nextAt    units.Time         // earliest pending local event
	hasNext   bool
	remaining int // owned-sender flows not yet completed
	drained   bool
	lastDone  units.Time // latest completion seen so far
	err       error
}

// runSharded builds the remaining cores of first's partition, drives
// all of them through the epoch loop and returns the run's end time.
func (ss *Session) runSharded(first *runCore) ([]*runCore, units.Time, error) {
	sc := &ss.sc
	// The lookahead is the minimum boundary propagation delay, further
	// tightened by any scheduled OpDelay — a fault may shrink a
	// boundary link mid-run, and the window width must stay causal
	// under the smallest delay that can ever be in effect.
	la := first.lookahead
	for _, ev := range sc.Faults {
		if ev.Op == faults.OpDelay && ev.Delay < la {
			la = ev.Delay
		}
	}
	if la <= 0 {
		return nil, 0, fmt.Errorf("sim: scenario %q: Shards > 1 requires a positive minimum boundary-link delay (lookahead %v)", sc.Name, la)
	}
	// Flow teardown travels at the same finite latency at every shard
	// count (see teardownLag); it is computed over every
	// boundary-capable link, so it can only tighten the window — which
	// keeps a close event scheduled from a barrier (at completion + lag)
	// always in a later window than the completion's.
	lag := first.closeLag
	if lag <= 0 {
		return nil, 0, fmt.Errorf("sim: scenario %q: Shards > 1 requires a positive minimum fabric-link delay (teardown lag %v)", sc.Name, lag)
	}
	if lag < la {
		la = lag
	}

	n := first.shards
	shards := make([]*runCore, n)
	shards[0] = first
	for i := 1; i < n; i++ {
		var err error
		if shards[i], err = newCore(sc, i, ss.observing()); err != nil {
			return nil, 0, err
		}
	}

	ins := make([]chan shardEpochIn, n)
	outs := make([]chan shardEpochOut, n)
	var wg sync.WaitGroup
	for i, c := range shards {
		ins[i] = make(chan shardEpochIn, 1)
		outs[i] = make(chan shardEpochOut, 1)
		wg.Add(1)
		go c.serve(ins[i], outs[i], &wg)
	}
	stopWorkers := func() {
		for _, in := range ins {
			close(in)
		}
		wg.Wait()
	}

	// The epoch loop. pendingH/pendingC hold messages produced in past
	// windows, not yet due / not yet delivered.
	pendingH := make([][]topology.Handoff, n)
	pendingC := make([][]closeMsg, n)
	maxT := sc.MaxTime
	window := ss.window()
	nextSnap := window
	var (
		cur     units.Time
		endTime units.Time
		runErr  error
	)
	for {
		// Cooperative cancel, checked between windows like the lone-core
		// drive loop checks between batches.
		if ss.Canceled() {
			stopWorkers()
			return nil, 0, ss.cancelErr()
		}
		deadline := cur + la - 1
		if deadline > maxT || deadline < cur {
			deadline = maxT
		}
		for i := range shards {
			due, rest := splitDue(pendingH[i], deadline)
			pendingH[i] = rest
			sortHandoffs(due)
			cs := pendingC[i]
			pendingC[i] = nil
			sortCloses(cs)
			ins[i] <- shardEpochIn{deadline: deadline, handoffs: due, closes: cs}
		}
		total := 0
		allDrained := true
		var last, next units.Time
		hasNext := false
		for i := range shards {
			o := <-outs[i]
			if o.err != nil && runErr == nil {
				runErr = o.err
			}
			for _, h := range o.handoffs {
				pendingH[h.DstShard] = append(pendingH[h.DstShard], h)
			}
			for _, d := range o.dones {
				pendingC[d.dstShard] = append(pendingC[d.dstShard], d)
			}
			total += o.remaining
			allDrained = allDrained && o.drained
			if o.lastDone > last {
				last = o.lastDone
			}
			if o.hasNext && (!hasNext || o.nextAt < next) {
				next, hasNext = o.nextAt, true
			}
		}
		// Every shard is parked at the barrier now (blocked on its next
		// work order), so reading shard-private state here is race-free:
		// the happens-before chain runs through the outs receive above.
		ss.tally(shards)
		if runErr != nil {
			stopWorkers()
			return nil, 0, runErr
		}
		if sc.StopWhenDone && total == 0 && allDrained {
			endTime = last
			break
		}
		if deadline >= maxT {
			endTime = maxT
			break
		}
		if ss.observing() && deadline >= nextSnap {
			ss.snapshot(shards, deadline)
			for nextSnap <= deadline {
				nextSnap += window
			}
		}
		// Jump the next window's start over the idle gap: the earliest
		// pending event or undelivered handoff anywhere. The width
		// stays la, so causality is untouched — only dead windows are
		// skipped.
		for i := range pendingH {
			for j := range pendingH[i] {
				if h := &pendingH[i][j]; !hasNext || h.DeliverAt < next {
					next, hasNext = h.DeliverAt, true
				}
			}
		}
		if !hasNext {
			endTime = maxT
			break
		}
		if next <= deadline {
			next = deadline + 1
		}
		cur = next
	}
	stopWorkers()

	// Completions from the final window: close and fold on the
	// coordinator — the workers are joined, so this is single-threaded.
	for i, c := range shards {
		cs := pendingC[i]
		sortCloses(cs)
		c.applyCloses(cs, false)
	}
	return shards, endTime, nil
}

// serve is the shard goroutine: one epoch per work order until the
// channel closes. All core state is private to this goroutine while
// it runs; the channel pair is the only synchronization.
func (c *runCore) serve(in <-chan shardEpochIn, out chan<- shardEpochOut, wg *sync.WaitGroup) {
	defer wg.Done()
	for ep := range in {
		out <- c.runEpoch(ep)
	}
}

// runEpoch applies the barrier's messages, runs the window, and
// reports. Each handoff is scheduled with the same DeliveryKey its
// source port used, so it fires at exactly the position — relative to
// this shard's local same-instant deliveries — that one engine fires
// the original delivery at.
func (c *runCore) runEpoch(ep shardEpochIn) shardEpochOut {
	c.applyCloses(ep.closes, true)
	for i := range ep.handoffs {
		h := &ep.handoffs[i]
		c.sim.AtKey(h.DeliverAt, netem.DeliveryKey(h.AdmittedAt, h.SrcPort), c.applyFn, h)
	}
	c.sim.RunUntil(ep.deadline)
	o := shardEpochOut{
		handoffs:  c.outHandoffs,
		dones:     c.outDones,
		remaining: c.remaining,
		drained:   c.drained,
		lastDone:  c.lastDone,
		err:       c.err,
	}
	c.outHandoffs = nil
	c.outDones = nil
	o.nextAt, o.hasNext = c.sim.NextEventAt()
	return o
}

// applyCloses handles the receiver halves of cross-shard flows whose
// senders completed elsewhere, in the barrier's deterministic order.
// The stats merge happens here — safe at any point at or after
// completion, because the receiver froze its half of the record the
// moment all payload arrived — but the teardown itself is re-created
// as the keyed engine event a core-local flow schedules at the
// sender's done callback: at completion + lag, keyed by (completion,
// host). The lag is no smaller than the window width, so an event
// scheduled from the barrier after the completion's window is never in
// the past. With schedule false (the post-join sweep, engines stopped)
// the receiver is dropped directly.
func (c *runCore) applyCloses(closes []closeMsg, schedule bool) {
	for i := range closes {
		m := &closes[i]
		id := m.sender.ID
		if schedule {
			c.hosts[id.Dst].CloseReceiverAt(m.at, c.closeLag, id)
		} else {
			c.hosts[id.Dst].CloseReceiver(id)
		}
		rs := c.rstats[m.idx]
		delete(c.rstats, m.idx)
		if c.agg != nil {
			merged := m.sender
			addRecvHalf(&merged, rs)
			c.agg.Fold(&merged, m.short, m.at)
		}
		if c.rFinal != nil && rs != nil {
			c.rFinal[m.idx] = *rs
		}
	}
}

// sortHandoffs orders one epoch's handoffs deterministically.
func sortHandoffs(hs []topology.Handoff) {
	sort.SliceStable(hs, func(i, j int) bool { return topology.HandoffBefore(&hs[i], &hs[j]) })
}

// sortCloses orders one epoch's completion messages deterministically.
func sortCloses(cs []closeMsg) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].at != cs[j].at {
			return cs[i].at < cs[j].at
		}
		return cs[i].idx < cs[j].idx
	})
}

// splitDue partitions pending handoffs into those due by the deadline
// and the rest.
func splitDue(hs []topology.Handoff, deadline units.Time) (due, rest []topology.Handoff) {
	for i := range hs {
		if hs[i].DeliverAt <= deadline {
			due = append(due, hs[i])
		} else {
			rest = append(rest, hs[i])
		}
	}
	return due, rest
}
