package sim

import (
	"fmt"
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// This file is the run core: the one implementation of "a scenario on
// an event engine" — engine, packet pool, network, hosts, fault
// install, arrival pump, flow open/close, output sinks, goodput ticker,
// fold target — and its reduction to a Result.
//
// Every output folds as it happens and nothing is kept per packet.
// Each endpoint points at its class's run-level transport.Sink: the
// receiver adds each data packet to the queue-length histogram and the
// receiver series, in engine delivery order (a function of the traffic
// alone, see netem.DeliveryKey), and the sender credits newly acked
// bytes, which the goodput ticker moves into its series once per
// bucket.

// runCore is one run's complete private world: nothing in it is shared
// with another run, so sweep workers never contend.
type runCore struct {
	sc  *Scenario
	sim *eventsim.Sim
	net topology.Network

	hosts []*transport.Host
	ports []*netem.Port // the balanced (uplink) ports

	// next yields the workload in arrival order; pendIdx and pend are
	// the one arrival the pump has pulled from it and scheduled.
	next    func() (int, workload.Flow, bool)
	pendIdx int
	pend    workload.Flow
	onDone  func(*transport.Sender) // flowFinished, bound once

	// remaining counts flows armed (the one pending arrival included)
	// but unfinished.
	remaining int
	// closeLag is the finite teardown latency: how long after a
	// sender's completion its receiver closes (see newCore).
	closeLag units.Time
	// stopped is the durable record that the core ended its own run
	// (stop: the last completion under StopWhenDone, or a failure):
	// RunUntil consumes the engine's one-shot stop flag on return.
	stopped bool
	err     error

	// agg is the fold target every flow record is reduced into exactly
	// once — at its done callback, or in assemble if still open at end
	// of run — and becomes Result.Stream. The fold only reads records,
	// so the simulation cannot see it.
	agg *StreamAgg
	// started/done count flow opens and completions, for the progress
	// stream and the fold audit.
	started int64
	done    int64

	// flows are the opened flows' records in open order, kept unless
	// StreamStats; they become Result.Flows.
	flows []*transport.FlowStats
	// shortOut and longOut are the sinks every endpoint of the class
	// reports to. shortGoodput and longGoodput are the per-bucket acked
	// payload of each class, when the run collects time series.
	shortOut, longOut         transport.Sink
	shortGoodput, longGoodput *stats.TimeSeries
}

// newCore constructs the scenario's world — engine, pool, network,
// faults, hosts — and arms the workload and the goodput ticker, in
// that order: set-up events take their sequence numbers in it.
func newCore(sc *Scenario) (*runCore, error) {
	c := &runCore{sc: sc, sim: eventsim.New(), agg: &StreamAgg{}}
	rng := eventsim.NewRNG(sc.Seed)
	// One packet pool per run: endpoints allocate from it, and the
	// hosts (delivery) and fabric (drops) release back to it, making
	// the steady-state packet path allocation-free. Per-run ownership
	// keeps sweep workers from sharing any mutable state.
	pool := netem.NewPacketPool()
	c.onDone = c.flowFinished

	deliver := func(host int, pkt *netem.Packet) { c.hosts[host].Receive(pkt) }
	var err error
	if sc.BuildNetwork != nil {
		c.net, err = sc.BuildNetwork(c.sim, sc.Balancer, rng.Split(), deliver)
	} else {
		c.net, err = topology.New(c.sim, sc.Topology, sc.Balancer, rng.Split(), deliver)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	net := c.net
	c.ports = net.BalancedPorts()

	if len(sc.Faults) > 0 {
		// A BuildNetwork wrapper has no links to resolve; on the fabric
		// itself LinkPorts decides whether (leaf, spine) addresses it.
		fab, ok := net.(*topology.Fabric)
		if !ok {
			return nil, fmt.Errorf("sim: scenario %q: fault schedule needs a *topology.Fabric to resolve links on, got %T", sc.Name, net)
		}
		if err := faults.Install(c.sim, sc.Faults, fab.LinkPorts); err != nil {
			return nil, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
	}

	net.SetPool(pool)
	c.hosts = make([]*transport.Host, net.Hosts())
	for h := range c.hosts {
		c.hosts[h] = transport.NewHost(c.sim, h, func(pkt *netem.Packet) { net.Inject(h, pkt) })
		c.hosts[h].SetPool(pool)
	}
	// Teardown travels at finite latency like everything else in the
	// fabric: an instantaneous close would let the sender's completion
	// reach across the network in zero time and discard a
	// retransmission still in flight, where a real receiver would still
	// answer it with a duplicate ACK. The lag is the fabric's fastest
	// inter-switch hop, read off the description, so the close events —
	// and the goldens that depend on them — do not move with how the
	// network was built or wrapped.
	c.closeLag = sc.Topology.MinFabricDelay()

	c.shortOut.QueueLen = &stats.Histogram{}
	if err := c.scheduleFlows(); err != nil {
		return nil, err
	}
	if sc.CollectTimeSeries {
		w := sc.TimeBucket.Seconds()
		c.shortOut.QueueDelayUs, c.shortOut.OutOfOrder = stats.NewTimeSeries(w), stats.NewTimeSeries(w)
		c.longOut.OutOfOrder = stats.NewTimeSeries(w)
		// Goodput series: the bytes acked since the last tick, once per
		// bucket.
		c.shortGoodput, c.longGoodput = stats.NewTimeSeries(w), stats.NewTimeSeries(w)
		period := sc.TimeBucket
		var tick func()
		tick = func() {
			c.addGoodput(c.sim.Now())
			c.sim.After(period, tick)
		}
		c.sim.After(period, tick)
	}
	return c, nil
}

func checkFlowEndpoints(i int, f workload.Flow, hosts int) error {
	if f.Src == f.Dst || f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts {
		return fmt.Errorf("sim: flow %d has invalid endpoints %d->%d", i, f.Src, f.Dst)
	}
	return nil
}

// arrivals returns the workload as one iterator over (index, flow) in
// arrival order. A source yields in its own order and a flow's index
// is its arrival count. A slice may list its flows in any order: a
// flow's index is its position and flows arrive in stable (Start,
// index) order. Slice endpoints are checked here, so a bad slice fails
// newCore instead of the run.
func (c *runCore) arrivals() (func() (int, workload.Flow, bool), error) {
	sc := c.sc
	n := 0
	if sc.FlowSourceNew != nil {
		src := sc.FlowSourceNew()
		return func() (int, workload.Flow, bool) {
			f, ok := src.Next()
			i := n
			n++
			return i, f, ok
		}, nil
	}
	order := make([]int, len(sc.Flows))
	for i, f := range sc.Flows {
		if err := checkFlowEndpoints(i, f, len(c.hosts)); err != nil {
			return nil, err
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sc.Flows[order[a]].Start < sc.Flows[order[b]].Start })
	return func() (int, workload.Flow, bool) {
		if n == len(order) {
			return 0, workload.Flow{}, false
		}
		i := order[n]
		n++
		return i, sc.Flows[i], true
	}, nil
}

// scheduleFlows arms the workload's one arrival path, a pump that
// holds exactly one future arrival in the event queue: each arrival
// opens its flow, then pulls the next one and schedules it, so neither
// the queue nor the set-up cost grows with the total flow count.
func (c *runCore) scheduleFlows() error {
	var err error
	if c.next, err = c.arrivals(); err != nil {
		return err
	}
	i, f, ok := c.next()
	if !ok {
		return fmt.Errorf("sim: scenario %q: FlowSource yielded no flows", c.sc.Name)
	}
	c.arm(i, f)
	return nil
}

// arm schedules flow i's arrival as the pump's pending one.
func (c *runCore) arm(i int, f workload.Flow) {
	if err := checkFlowEndpoints(i, f, len(c.hosts)); err != nil {
		c.fail(err)
		return
	}
	if f.Start < c.sim.Now() {
		c.fail(fmt.Errorf("sim: FlowSource went backwards: flow %d starts at %v, now %v", i, f.Start, c.sim.Now()))
		return
	}
	// Armed before the previous arrival's event returns, so remaining
	// cannot reach zero while the workload has flows left.
	c.remaining++
	c.pendIdx, c.pend = i, f
	c.sim.AtArg(f.Start, arriveFire, c)
}

func arriveFire(arg any) { arg.(*runCore).arrive() }

// arrive opens the pending flow at its start time and arms the next.
func (c *runCore) arrive() {
	i, f := c.pendIdx, c.pend
	if r := c.sc.Replication; r != nil && r.Copies > 1 && f.Size <= r.Threshold {
		c.openReplicated(i, f)
	} else {
		c.openFlow(i, f)
	}
	if ni, nf, ok := c.next(); ok {
		c.arm(ni, nf)
	}
}

// stop ends the current RunUntil after the in-flight event and the
// core's run with it.
func (c *runCore) stop() {
	c.stopped = true
	c.sim.Stop()
}

// fail records the first error and stops the core.
func (c *runCore) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.stop()
}

// flowDone counts one completion; under StopWhenDone the last one
// stops the run.
func (c *runCore) flowDone() {
	c.remaining--
	c.done++
	if c.sc.StopWhenDone && c.remaining == 0 {
		c.stop()
	}
}

// openFlow runs at f.Start and opens one flow. Sender and receiver
// share one record, and flowFinished takes it from there.
func (c *runCore) openFlow(i int, f workload.Flow) {
	sc := c.sc
	id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: i}
	short := f.Size <= ShortThreshold
	snd := transport.Open(&sc.Transport, c.hosts[f.Src], c.hosts[f.Dst], id, f.Size, c.onDone)
	snd.Stats.Deadline = f.Deadline
	snd.Sink = c.sink(short)
	snd.Receiver().Sink = snd.Sink
	c.keep(snd.Stats)
	c.started++
	snd.Start()
}

// flowFinished is every plain flow's done callback: the receiver closes
// after the teardown lag and the fold is synchronous.
func (c *runCore) flowFinished(done *transport.Sender) {
	now := c.sim.Now()
	c.hosts[done.ID().Dst].CloseReceiverAt(now, c.closeLag, done.Receiver())
	// Under StreamStats this is fold and forget: the host already
	// released the sender, so nothing retains the record.
	c.agg.Fold(done.Stats, done.Size() <= ShortThreshold, now)
	c.flowDone()
}

// openReplicated runs at f.Start and realizes one flow as N racing
// copies (RepFlow). The canonical record is the one kept and receives
// the winner's record; losers keep draining but are otherwise ignored.
// Every copy's receiver reports to the sink, since every copy's packets
// cross the fabric, but the flow's payload counts as acked once, at the
// win.
func (c *runCore) openReplicated(idx int, f workload.Flow) {
	sc := c.sc
	flow := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx}
	short := f.Size <= ShortThreshold
	canonical := &transport.FlowStats{ID: flow, Size: f.Size, Deadline: f.Deadline}
	c.keep(canonical)
	out := c.sink(short)
	won := false
	copies := sc.Replication.Copies
	for k := 0; k < copies; k++ {
		// Distinct Port per copy: per-flow schemes (ECMP, WCMP,
		// Presto, ...) hash the copies independently.
		id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx + (k+1)<<24}
		snd := transport.Open(&sc.Transport, c.hosts[f.Src], c.hosts[f.Dst], id, f.Size, func(done *transport.Sender) {
			c.hosts[f.Dst].CloseReceiverAt(c.sim.Now(), c.closeLag, done.Receiver())
			if won {
				return
			}
			won = true
			// The winner's record becomes the flow's record.
			*canonical = *done.Stats
			canonical.ID = flow
			canonical.Deadline = f.Deadline
			out.Acked += canonical.BytesAcked
			c.agg.Fold(canonical, short, c.sim.Now())
			c.flowDone()
		})
		snd.Stats.Deadline = f.Deadline
		snd.Receiver().Sink = out
		snd.Start()
	}
	c.started++
}

// sink returns the class's sink.
func (c *runCore) sink(short bool) *transport.Sink {
	if short {
		return &c.shortOut
	}
	return &c.longOut
}

// keep retains a flow's record for Result.Flows (record mode only —
// streaming runs retain no per-flow state).
func (c *runCore) keep(fs *transport.FlowStats) {
	if !c.sc.StreamStats {
		c.flows = append(c.flows, fs)
	}
}

// addGoodput moves each class's acked bytes not yet in its goodput
// series into it at time at.
func (c *runCore) addGoodput(at units.Time) {
	moveAcked(&c.shortOut, c.shortGoodput, at)
	moveAcked(&c.longOut, c.longGoodput, at)
}

// moveAcked adds out's pending acked bytes to series at time at. With
// nothing pending it adds nothing, so Sums grows no bucket after the
// last acked byte. A bucket sums integers, so it is exact however the
// bytes were grouped into adds.
func moveAcked(out *transport.Sink, series *stats.TimeSeries, at units.Time) {
	if out.Acked > 0 {
		series.Add(at.Seconds(), float64(out.Acked))
		out.Acked = 0
	}
}

// uplinks snapshots the balanced (uplink) ports in their build order.
// Reading the counters mid-run is safe between event batches.
func (c *runCore) uplinks() []PortSnapshot {
	out := make([]PortSnapshot, 0, len(c.ports))
	for _, p := range c.ports {
		out = append(out, PortSnapshot{
			Label:    p.Label(),
			BusyTime: p.BusyTime(),
			Queue:    p.Queue().Stats(),
			Link:     p.Link(),
		})
	}
	return out
}

// assemble reduces the finished core to the run's Result, or fails the
// run if the fold audit does not balance.
func assemble(sc *Scenario, c *runCore, endTime units.Time) (*Result, error) {
	res := &Result{
		Scenario: sc.Name,
		Scheme:   sc.SchemeName,
		Stream:   c.agg,
		EndTime:  endTime,

		ShortQueueLen:     c.shortOut.QueueLen,
		ShortQueueDelayUs: c.shortOut.QueueDelayUs,
		ShortOOORatio:     c.shortOut.OutOfOrder,
		LongOOORatio:      c.longOut.OutOfOrder,
	}
	if sc.CollectTimeSeries {
		// Completion can land between ticks: flush what the last tick
		// did not see at EndTime.
		c.addGoodput(endTime)
		res.ShortGoodputBytes, res.LongGoodputBytes = c.shortGoodput, c.longGoodput
	}

	// Completed flows folded at their done callbacks; fold the flows
	// still open so unfinished ones count too (deadline misses at
	// endTime, goodput over active time).
	if sc.StreamStats {
		// No records were kept: sweep the still-open senders, in host
		// order then FlowID order so the fold sequence is deterministic.
		for _, h := range c.hosts {
			h.EachOpenSenderSorted(func(snd *transport.Sender) {
				c.agg.Fold(snd.Stats, snd.Size() <= ShortThreshold, endTime)
			})
		}
	} else {
		// Records are kept as well: Flows in open order.
		res.Flows = c.flows
		for _, fs := range c.flows {
			if !fs.Done {
				c.agg.Fold(fs, fs.Size <= ShortThreshold, endTime)
			}
		}
	}
	if err := auditFold(c.agg.Agg(AllFlows), c.started, c.done); err != nil {
		return nil, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}

	res.Drops = c.net.Drops()
	c.net.EveryQueue(func(_ string, q *netem.Queue) { res.FaultDrops += q.Stats().FaultDropped })
	res.Uplinks = c.uplinks()
	for _, e := range sc.Faults.Sorted() {
		if e.At <= endTime {
			res.Faults = append(res.Faults, e)
		}
	}
	return res, nil
}

// auditFold is the conservation check on the one path every flow
// measurement takes: each opened flow must have been folded exactly
// once, and each completion folded as a completion.
func auditFold(all *stats.FlowAgg, opened, done int64) error {
	if all.Count != opened || all.Completed != done {
		return fmt.Errorf("fold audit: %d flows folded (%d completed), %d opened (%d completed)",
			all.Count, all.Completed, opened, done)
	}
	return nil
}
