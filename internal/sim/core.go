package sim

import (
	"fmt"
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/trace"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// This file is the run core: the one implementation of "a scenario on
// an event engine" — engine, packet pool, network, hosts, fault
// install, flow schedule and pump, flow open/close, sample and goodput
// logs, fold target — parameterised only by which hosts the core owns.
// A single-engine run is one core owning every host (no partition, no
// boundary ports, any topology.Network); a sharded run is N cores over
// one topology.Partition, synchronized by shard.go. Both are assembled
// into a Result by the same function below.
//
// Order-sensitive floating-point reductions (time series, per-packet
// samples, goodput deltas) are never summed online: every core logs
// them and assemble replays the merged logs in one canonical order, so
// the sums are bit-identical at any core count.

// sampleRec is one logged receiver packet sample.
type sampleRec struct {
	ps    transport.PacketSample
	short bool
}

// tickRec is one flow's goodput-sampler delta at one tick.
type tickRec struct {
	at    units.Time
	idx   int32
	short bool
	delta units.Bytes
}

// openRec remembers a flow opened with its sender on this core, in
// open order — the record-mode result set and the goodput sampler's
// iteration domain.
type openRec struct {
	idx   int
	start units.Time
	short bool
	cross bool // receiver lives on another core
	stats *transport.FlowStats
	last  units.Bytes // goodput sampler: BytesAcked at last tick
}

// runCore is one core's complete private world. Under sharding only
// its own goroutine touches it between the channel barriers.
type runCore struct {
	id  int
	sc  *Scenario
	cfg transport.Config // sc.Transport with this core's pool
	sim *eventsim.Sim
	net topology.Network

	// sharder and part are set when the scenario asked for Shards > 1;
	// shards is the effective core count (1 when there is no partition
	// or it clamped to one) and lookahead the minimum boundary-link
	// delay ShardBind reported.
	sharder   topology.Sharder
	part      *topology.Partition
	shards    int
	lookahead units.Time

	hosts     []*transport.Host
	hostOwner []int // owning core of each host; all zero on a lone core
	ports     []*netem.Port
	portOwner []int // owning core of each balanced port, index-aligned

	// remaining counts owned-sender flows scheduled but unfinished;
	// drained is true once no further arrivals can appear (immediately
	// for the slice path, at the lazy source's exhaustion otherwise).
	remaining int
	drained   bool
	lastDone  units.Time
	closeLag  units.Time // finite teardown latency, same value in every core
	// stopped is the durable record that this core ended its own run
	// (stop: a lone core's last completion under StopWhenDone, or a
	// failure): RunUntil consumes the engine's one-shot stop flag on
	// return.
	stopped bool
	err     error

	outHandoffs []topology.Handoff
	outDones    []closeMsg
	applyFn     func(any)

	// rstats holds the receiver-half record of every open cross-shard
	// flow terminating here, by global flow index; rFinal snapshots it
	// at close (record mode).
	rstats map[int]*transport.FlowStats
	rFinal map[int]transport.FlowStats

	// agg is the fold target: set when the scenario streams its stats
	// or an observer wants per-class aggregates in its snapshots. It
	// only ever reads completed records, so the simulation cannot see
	// it; Result.Stream is published from it only under StreamStats.
	agg *StreamAgg
	// started/done count sender-owned flow opens and completions for
	// the progress stream.
	started int64
	done    int64

	openLog []openRec
	samples []sampleRec
	ticks   []tickRec
}

// newCore constructs core id of the scenario's world — engine, pool,
// network, faults, hosts — and arms its share of the workload and the
// goodput ticker, in that order: set-up events take their sequence
// numbers in it. fold asks for the per-class fold target even when the
// run retains its records.
func newCore(sc *Scenario, id int, fold bool) (*runCore, error) {
	c := &runCore{id: id, sc: sc, shards: 1, sim: eventsim.New()}
	rng := eventsim.NewRNG(sc.Seed)
	// One packet pool per core: endpoints allocate from it, and the
	// hosts (delivery) and fabric (drops) release back to it, making
	// the steady-state packet path allocation-free. Per-core ownership
	// keeps sweep workers and shard goroutines from sharing any mutable
	// state.
	pool := netem.NewPacketPool()
	c.cfg = sc.Transport
	c.cfg.Pool = pool

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
	c.hostOwner = make([]int, net.Hosts())
	if sc.Shards <= 1 {
		c.portOwner = make([]int, len(c.ports))
	} else {
		sh, ok := net.(topology.Sharder)
		if !ok {
			return nil, fmt.Errorf("sim: scenario %q: Shards > 1 needs a partitionable network (topology.Sharder), got %T", sc.Name, net)
		}
		c.sharder = sh
		c.part = sh.NewPartition(sc.Shards)
		c.shards = c.part.Shards
		c.lookahead = sh.ShardBind(c.part, id, func(h topology.Handoff) {
			c.outHandoffs = append(c.outHandoffs, h)
		})
		c.applyFn = func(arg any) { sh.ApplyHandoff(arg.(*topology.Handoff)) }
		for h := range c.hostOwner {
			c.hostOwner[h] = sh.HostOwner(c.part, h)
		}
		c.portOwner = sh.BalancedPortOwners(c.part)
	}

	if len(sc.Faults) > 0 {
		fab, ok := net.(*topology.Fabric)
		if !ok {
			return nil, fmt.Errorf("sim: scenario %q: fault schedule requires the leaf-spine fabric", sc.Name)
		}
		// Every core installs the FULL schedule, filtered to the
		// directed ports it owns — so each directed port is faulted by
		// exactly the core that runs its events, at the exact times.
		resolve := fab.LinkPorts
		if c.part != nil {
			resolve = func(leaf, spine int) (*netem.Port, *netem.Port, error) {
				up, down, err := fab.LinkPorts(leaf, spine)
				if err != nil {
					return nil, nil, err
				}
				upO, downO := fab.LinkOwners(c.part, leaf, spine)
				if upO != id {
					up = nil
				}
				if downO != id {
					down = nil
				}
				return up, down, nil
			}
		}
		if _, err := faults.Install(c.sim, sc.Faults, resolve, sc.Tracer); err != nil {
			return nil, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
	}

	net.SetPool(pool)
	c.hosts = make([]*transport.Host, net.Hosts())
	for h := range c.hosts {
		c.hosts[h] = transport.NewHost(c.sim, h, func(pkt *netem.Packet) { net.Inject(h, pkt) })
		c.hosts[h].SetPool(pool)
	}
	c.closeLag = teardownLag(net, sc.Faults)
	c.rstats = make(map[int]*transport.FlowStats)
	if !sc.StreamStats {
		c.rFinal = make(map[int]transport.FlowStats)
	}
	if sc.StreamStats || fold {
		c.agg = &StreamAgg{}
	}

	if err := c.scheduleFlows(); err != nil {
		return nil, err
	}
	if sc.CollectTimeSeries {
		// Goodput series: sample each flow's acked-byte progress once
		// per bucket (per-packet samples carry no size, and wrapping the
		// fabric's deliver path would double-dispatch).
		period := sc.TimeBucket
		var tick func()
		tick = func() {
			c.sampleGoodput()
			c.sim.After(period, tick)
		}
		c.sim.After(period, tick)
	}
	return c, nil
}

// owns reports whether this core runs the host's endpoints.
func (c *runCore) owns(host int) bool { return c.hostOwner[host] == c.id }

// lone reports whether this core is the whole world: no partition, or
// one that clamped to a single shard.
func (c *runCore) lone() bool { return c.shards == 1 }

func checkFlowEndpoints(i int, f workload.Flow, hosts int) error {
	if f.Src == f.Dst || f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts {
		return fmt.Errorf("sim: flow %d has invalid endpoints %d->%d", i, f.Src, f.Dst)
	}
	return nil
}

// scheduleFlows arms this core's share of the workload. Every flow
// keeps its global index; a core schedules open events only for flows
// with an endpoint it owns, and counts toward remaining only those
// whose sender it owns (completion is decided where the sender lives).
// With a lazy workload every core pumps its own full source copy —
// sources are pure functions of spec and seed — so indices and arrival
// times agree across cores by construction.
func (c *runCore) scheduleFlows() error {
	sc := c.sc
	for i, f := range sc.Flows {
		if err := checkFlowEndpoints(i, f, len(c.hosts)); err != nil {
			return err
		}
		if !c.owns(f.Src) && !c.owns(f.Dst) {
			continue
		}
		if c.owns(f.Src) {
			c.remaining++
		}
		if r := sc.Replication; r != nil && r.Copies > 1 && f.Size <= r.Threshold {
			c.openReplicated(i, f)
			continue
		}
		c.sim.At(f.Start, func() { c.openFlow(i, f) })
	}
	c.drained = sc.FlowSourceNew == nil
	if c.drained {
		return nil
	}
	// Lazy pump: schedule one arrival ahead. Each flow's open event
	// pulls the next flow from the source and schedules it, so at most
	// one future arrival lives in the event queue at a time and neither
	// the workload nor the queue grows with the total flow count.
	src := sc.FlowSourceNew()
	var pump func(i int, f workload.Flow)
	pump = func(i int, f workload.Flow) {
		if err := checkFlowEndpoints(i, f, len(c.hosts)); err != nil {
			c.fail(err)
			return
		}
		if f.Start < c.sim.Now() {
			c.fail(fmt.Errorf("sim: FlowSource went backwards: flow %d starts at %v, now %v", i, f.Start, c.sim.Now()))
			return
		}
		if c.owns(f.Src) {
			c.remaining++
		}
		c.sim.At(f.Start, func() {
			c.openFlow(i, f)
			if nf, ok := src.Next(); ok {
				pump(i+1, nf)
			} else {
				c.drained = true
			}
		})
	}
	f, ok := src.Next()
	if !ok {
		return fmt.Errorf("sim: scenario %q: FlowSource yielded no flows", sc.Name)
	}
	pump(0, f)
	return nil
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

// flowDone is the core-local part of every completion. A lone core
// under StopWhenDone stops at its last one; shards never stop
// themselves — the coordinator owns that decision at the next barrier.
func (c *runCore) flowDone() {
	c.remaining--
	c.done++
	if now := c.sim.Now(); now > c.lastDone {
		c.lastDone = now
	}
	if c.lone() && c.sc.StopWhenDone && c.remaining == 0 && c.drained {
		c.stop()
	}
}

// openFlow runs at f.Start and opens the endpoints this core owns for
// one flow; it is the one shared body of the eager (pre-scheduled
// slice) and lazy (pumped source) arrival paths.
func (c *runCore) openFlow(i int, f workload.Flow) {
	sc := c.sc
	id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: i}
	short := f.Size <= sc.ShortThreshold
	srcHere, dstHere := c.owns(f.Src), c.owns(f.Dst)
	switch {
	case srcHere && dstHere:
		// Core-local flow: one record shared by both endpoints, a
		// deferred keyed close and a synchronous fold.
		recvHost := c.hosts[f.Dst]
		snd := c.hosts[f.Src].OpenSender(c.cfg, id, f.Size, func(done *transport.Sender) {
			closeReceiver(recvHost, c.sim.Now(), c.closeLag, id)
			if sc.Tracer != nil {
				sc.Tracer.Record(trace.Event{
					At: c.sim.Now(), Kind: trace.FlowEnd, Flow: id,
					Note: fmt.Sprintf("fct=%v retx=%d", done.Stats.FCT(), done.Stats.Retransmits),
				})
			}
			if c.agg != nil {
				// Under StreamStats this is fold and forget: the host
				// already released the endpoint, so nothing retains the
				// record.
				c.agg.Fold(&done.Stats, short, c.sim.Now())
			}
			c.flowDone()
		})
		snd.Stats.Deadline = f.Deadline
		recv := recvHost.OpenReceiver(c.cfg, id, f.Size, &snd.Stats)
		c.hookSamples(recv, short)
		c.logOpen(i, short, false, &snd.Stats)
		if sc.Tracer != nil {
			// Only a lone core traces (Shards > 1 rejects a Tracer).
			// Record is nil-safe; the guard is for the note, which
			// would otherwise be formatted — and allocated — per flow
			// with nobody to read it.
			sc.Tracer.Record(trace.Event{
				At: c.sim.Now(), Kind: trace.FlowStart, Flow: id,
				Note: f.Size.String(),
			})
		}
		c.started++
		snd.Start()
	case srcHere:
		// Sender half of a cross-shard flow: completion travels to the
		// receiver's shard as a closeMsg, applied at the next barrier.
		dst := int32(c.hostOwner[f.Dst])
		snd := c.hosts[f.Src].OpenSender(c.cfg, id, f.Size, func(done *transport.Sender) {
			c.outDones = append(c.outDones, closeMsg{
				idx: i, dstShard: dst, at: c.sim.Now(), short: short, sender: done.Stats,
			})
			c.flowDone()
		})
		snd.Stats.Deadline = f.Deadline
		c.logOpen(i, short, true, &snd.Stats)
		c.started++
		snd.Start()
	case dstHere:
		// Receiver half: a fresh record only the receiver writes,
		// merged with the sender half at close (or end of run).
		rs := &transport.FlowStats{ID: id, Size: f.Size, Deadline: f.Deadline}
		c.rstats[i] = rs
		recv := c.hosts[f.Dst].OpenReceiver(c.cfg, id, f.Size, rs)
		c.hookSamples(recv, short)
	}
}

// openReplicated realizes one flow as N racing copies (RepFlow). The
// canonical record enters the open log now, at schedule time, and
// receives the winner's record; losers keep draining but are otherwise
// ignored. Copies always race on one core: Shards > 1 rejects
// Replication.
func (c *runCore) openReplicated(idx int, f workload.Flow) {
	sc := c.sc
	flow := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx}
	short := f.Size <= sc.ShortThreshold
	canonical := &transport.FlowStats{ID: flow, Size: f.Size, Deadline: f.Deadline}
	c.logOpen(idx, short, false, canonical)
	won := false
	copies := sc.Replication.Copies
	c.sim.At(f.Start, func() {
		for k := 0; k < copies; k++ {
			// Distinct Port per copy: per-flow schemes (ECMP, WCMP,
			// Presto, ...) hash the copies independently.
			id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx + (k+1)<<24}
			recvHost := c.hosts[f.Dst]
			snd := c.hosts[f.Src].OpenSender(c.cfg, id, f.Size, func(done *transport.Sender) {
				closeReceiver(recvHost, c.sim.Now(), c.closeLag, id)
				if won {
					return
				}
				won = true
				// The winner's record becomes the flow's record.
				*canonical = done.Stats
				canonical.ID = flow
				canonical.Deadline = f.Deadline
				if sc.Tracer != nil {
					sc.Tracer.Record(trace.Event{
						At: c.sim.Now(), Kind: trace.FlowEnd, Flow: flow,
						Note: fmt.Sprintf("repflow winner fct=%v", done.Stats.FCT()),
					})
				}
				if c.agg != nil {
					c.agg.Fold(canonical, short, c.sim.Now())
				}
				c.flowDone()
			})
			snd.Stats.Deadline = f.Deadline
			recvHost.OpenReceiver(c.cfg, id, f.Size, &snd.Stats)
			snd.Start()
		}
		sc.Tracer.Record(trace.Event{
			At: c.sim.Now(), Kind: trace.FlowStart, Flow: flow,
			Note: fmt.Sprintf("%v x%d replicas", f.Size, copies),
		})
		c.started++
	})
}

// logOpen records a sender-owned open (record mode only — streaming
// runs retain no per-flow state).
func (c *runCore) logOpen(idx int, short, cross bool, fs *transport.FlowStats) {
	if c.sc.StreamStats {
		return
	}
	c.openLog = append(c.openLog, openRec{
		idx: idx, start: c.sim.Now(), short: short, cross: cross, stats: fs,
	})
}

// hookSamples wires the receiver's per-packet sample hook into the
// core's log.
func (c *runCore) hookSamples(recv *transport.Receiver, short bool) {
	sc := c.sc
	if !(sc.SampleShortPackets && short) && !sc.CollectTimeSeries {
		return
	}
	recv.Sample = func(ps transport.PacketSample) {
		c.samples = append(c.samples, sampleRec{ps: ps, short: short})
	}
}

// sampleGoodput logs each owned flow's acked-byte delta since its last
// tick, in open order.
func (c *runCore) sampleGoodput() {
	now := c.sim.Now()
	for j := range c.openLog {
		r := &c.openLog[j]
		d := r.stats.BytesAcked - r.last
		if d <= 0 {
			continue
		}
		r.last = r.stats.BytesAcked
		c.ticks = append(c.ticks, tickRec{at: now, idx: int32(r.idx), short: r.short, delta: d})
	}
}

// minFabricDelayer is implemented by the partitionable topologies
// (leaf-spine, fat-tree): the minimum propagation delay over their
// boundary-capable links, independent of any partition.
type minFabricDelayer interface {
	MinFabricDelay() units.Time
}

// teardownLag returns the flow-teardown latency for a run on net: how
// long after a sender's completion its receiver is torn down. Teardown
// is modelled as a finite-latency event because an instantaneous close
// would be a zero-latency cross-shard influence — a retransmission
// still in flight when the sender finishes would be consumed by a
// sharded run (receiver open until the next barrier) but discarded by
// a lone core (receiver closed synchronously), and the extra duplicate
// ACK perturbs every downstream per-packet RNG draw. Using the minimum
// boundary-capable link delay — tightened by any fault-scheduled delay
// override, exactly like the sharded lookahead — makes the lag (a) a
// pure function of scenario and topology, so every core at every shard
// count schedules the identical close event, and (b) at least as large
// as the sharded synchronization window, so a completion crossing a
// barrier can always still schedule its close in the future. Networks
// that cannot shard (custom BuildNetwork pipes) return 0 and keep the
// synchronous close.
func teardownLag(net topology.Network, sched faults.Schedule) units.Time {
	md, ok := net.(minFabricDelayer)
	if !ok {
		return 0
	}
	lag := md.MinFabricDelay()
	if lag <= 0 {
		return 0
	}
	for _, ev := range sched {
		if ev.Op == faults.OpDelay && ev.Delay < lag {
			lag = ev.Delay
		}
	}
	return lag
}

// closeReceiver tears down a flow's receiving endpoint at its sender's
// completion: deferred by the teardown lag on partitionable networks
// (see teardownLag), synchronous where no lag is defined.
func closeReceiver(h *transport.Host, done, lag units.Time, id netem.FlowID) {
	if lag > 0 {
		h.CloseReceiverAt(done, lag, id)
	} else {
		h.CloseReceiver(id)
	}
}

// addRecvHalf grafts the receiver-side counters of src onto dst: the
// two halves of a cross-shard flow are written by disjoint cores, so
// the merge is plain assignment.
func addRecvHalf(dst, src *transport.FlowStats) {
	if src == nil {
		return
	}
	dst.SumQueueDelay = src.SumQueueDelay
	dst.PacketsRecv = src.PacketsRecv
	dst.OutOfOrder = src.OutOfOrder
	dst.DupAcksSent = src.DupAcksSent
	dst.SumPktDelay = src.SumPktDelay
	dst.DelaySamples = src.DelaySamples
}

// classes merges the cores' fold targets into one independent
// aggregate — exact, the same reduction assemble performs — or nil
// when the run folds nothing.
func classes(cores []*runCore) *StreamAgg {
	if cores[0].agg == nil {
		return nil
	}
	agg := &StreamAgg{}
	for _, c := range cores {
		agg.Merge(c.agg)
	}
	return agg
}

// uplinks snapshots the balanced (uplink) ports in their global order,
// each read from the core that runs its events. Reading the counters
// mid-run is safe wherever every core is parked between event batches.
func uplinks(cores []*runCore) []PortSnapshot {
	first := cores[0]
	out := make([]PortSnapshot, 0, len(first.ports))
	for i, o := range first.portOwner {
		p := cores[o].ports[i]
		out = append(out, PortSnapshot{
			Label:    p.Label(),
			BusyTime: p.BusyTime(),
			Queue:    p.Queue().Stats(),
			Link:     p.Link(),
		})
	}
	return out
}

// assemble reduces the finished cores to the run's Result. Every core
// is stopped (and, under sharding, its goroutine joined), so this is
// single-threaded.
func assemble(sc *Scenario, cores []*runCore, endTime units.Time) *Result {
	res := &Result{
		Scenario:       sc.Name,
		Scheme:         sc.SchemeName,
		ShortThreshold: sc.ShortThreshold,
		EndTime:        endTime,
	}
	if sc.CollectTimeSeries {
		w := sc.TimeBucket.Seconds()
		res.ShortQueueDelayUs = stats.NewTimeSeries(w)
		res.ShortOOORatio = stats.NewTimeSeries(w)
		res.LongOOORatio = stats.NewTimeSeries(w)
		res.ShortGoodputBytes = stats.NewTimeSeries(w)
		res.LongGoodputBytes = stats.NewTimeSeries(w)
	}

	owner := cores[0].hostOwner
	var opens []openRec
	if sc.StreamStats {
		// Completed flows folded at their done callbacks; sweep the
		// still-open senders so unfinished flows count too, exactly as
		// the record-based accessors count them — host order then FlowID
		// order keeps the fold sequence deterministic — grafting the
		// live receiver half of cross-shard flows before folding.
		res.Stream = classes(cores)
		for h, o := range owner {
			c := cores[o]
			c.hosts[h].EachOpenSenderSorted(func(snd *transport.Sender) {
				fs := snd.Stats
				if dst := cores[owner[fs.ID.Dst]]; dst != c {
					addRecvHalf(&fs, dst.rstats[fs.ID.Port])
				}
				res.Stream.Fold(&fs, fs.Size <= sc.ShortThreshold, endTime)
			})
		}
	} else {
		// Record mode: Flows in open order. One core's log already is
		// that order; several merge by (start, index), which is the
		// order one engine opens them in. (Here and in the replays the
		// merged log grows out of core 0's, so a lone core's is used in
		// place, not copied.)
		opens = cores[0].openLog
		for _, c := range cores[1:] {
			opens = append(opens, c.openLog...)
		}
		if len(cores) > 1 {
			sort.SliceStable(opens, func(a, b int) bool {
				if opens[a].start != opens[b].start {
					return opens[a].start < opens[b].start
				}
				return opens[a].idx < opens[b].idx
			})
		}
		for i := range opens {
			r := &opens[i]
			fs := r.stats
			if r.cross {
				dst := cores[owner[fs.ID.Dst]]
				merged := *fs
				if fin, ok := dst.rFinal[r.idx]; ok {
					addRecvHalf(&merged, &fin)
				} else {
					addRecvHalf(&merged, dst.rstats[r.idx])
				}
				fs = &merged
			}
			res.Flows = append(res.Flows, fs)
		}
	}

	replaySamples(sc, res, cores)
	replayGoodput(sc, res, cores, opens)

	for _, c := range cores {
		res.Drops += c.net.Drops()
		count := func(_ string, q *netem.Queue) { res.FaultDrops += q.Stats().FaultDropped }
		if c.part != nil {
			c.sharder.EveryOwnedQueue(c.part, c.id, count)
		} else {
			c.net.EveryQueue(count)
		}
	}
	res.Uplinks = uplinks(cores)
	return res
}

// replaySamples merges the cores' packet-sample logs and applies them
// in (time, receiving host) order to the retained-sample slice and the
// receiver-side time series. The time-series bucket sums are
// floating-point and therefore order-sensitive: same-instant samples
// at different hosts arrive in engine delivery order on one engine but
// are logged per core when sharded, so a canonical replay order is the
// only way the sums come out bit-identical. Two samples can never tie
// on (time, host): a host's last hop is one FIFO port, which separates
// its deliveries in time.
func replaySamples(sc *Scenario, res *Result, cores []*runCore) {
	recs := cores[0].samples
	for _, c := range cores[1:] {
		recs = append(recs, c.samples...)
	}
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].ps.At != recs[b].ps.At {
			return recs[a].ps.At < recs[b].ps.At
		}
		return recs[a].ps.Flow.Dst < recs[b].ps.Flow.Dst
	})
	for i := range recs {
		r := &recs[i]
		if r.ps.At > res.EndTime {
			continue
		}
		if sc.SampleShortPackets && r.short {
			res.ShortSamples = append(res.ShortSamples, r.ps)
		}
		if !sc.CollectTimeSeries {
			continue
		}
		at := r.ps.At.Seconds()
		ooo := 0.0
		if r.ps.OutOfOrder {
			ooo = 1
		}
		if r.short {
			res.ShortQueueDelayUs.Add(at, r.ps.QueueDelay.Micros())
			res.ShortOOORatio.Add(at, ooo)
		} else {
			res.LongOOORatio.Add(at, ooo)
		}
	}
}

// replayGoodput merges the cores' goodput tick logs — ordered by tick
// time, then the flows' global open order within a tick, which is the
// order one engine's sampler visits them in — and applies the final
// flush at EndTime (completion can land between ticks).
func replayGoodput(sc *Scenario, res *Result, cores []*runCore, opens []openRec) {
	if !sc.CollectTimeSeries {
		return
	}
	rank := make(map[int32]int, len(opens))
	for i := range opens {
		rank[int32(opens[i].idx)] = i
	}
	ticks := cores[0].ticks
	for _, c := range cores[1:] {
		ticks = append(ticks, c.ticks...)
	}
	sort.SliceStable(ticks, func(a, b int) bool {
		if ticks[a].at != ticks[b].at {
			return ticks[a].at < ticks[b].at
		}
		return rank[ticks[a].idx] < rank[ticks[b].idx]
	})
	add := func(short bool, at units.Time, d units.Bytes) {
		if short {
			res.ShortGoodputBytes.Add(at.Seconds(), float64(d))
		} else {
			res.LongGoodputBytes.Add(at.Seconds(), float64(d))
		}
	}
	applied := make(map[int32]units.Bytes, len(opens))
	for i := range ticks {
		t := &ticks[i]
		if t.at > res.EndTime {
			continue
		}
		applied[t.idx] += t.delta
		add(t.short, t.at, t.delta)
	}
	for i := range opens {
		r := &opens[i]
		if d := r.stats.BytesAcked - applied[int32(r.idx)]; d > 0 {
			add(r.short, res.EndTime, d)
		}
	}
}
