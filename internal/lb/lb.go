// Package lb defines the load-balancer interface that switches consult
// when forwarding a packet onto one of several equal-cost uplinks, and
// implements the baseline schemes the paper compares against: ECMP,
// RPS, Presto, LetFlow and DRILL, plus the plain flow/flowlet/packet
// granularity switchers used in the paper's §2 motivation study.
//
// The TLB scheme itself — the paper's contribution — lives in
// internal/core and implements the same Balancer interface.
package lb

import (
	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Balancer picks an uplink for each packet at one switch. A Balancer
// instance is per-switch: it owns whatever per-flow state its scheme
// needs and sees every packet that switch forwards upward.
type Balancer interface {
	// Pick returns the index of the uplink the packet should take.
	// ports is the fixed slice of candidate uplinks passed at
	// construction (also given here for convenience and so stateless
	// schemes need not retain it).
	Pick(pkt *netem.Packet, ports []*netem.Port) int
}

// Factory constructs a per-switch Balancer. sim provides the clock and
// timers (schemes with periodic work, like TLB, hook in here), rng is a
// private deterministic stream, and ports are the switch's uplinks.
type Factory func(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) Balancer

// LowestDelay returns the index of the live port whose estimated
// delivery delay (backlog serialization + propagation) is smallest,
// breaking ties uniformly at random. On a symmetric fabric it picks the
// shortest queue, the paper's literal comparison; on an asymmetric one
// it avoids slow or long paths that a packet-count comparison cannot
// see. Down ports are skipped (fixed index 0 when all are down), which
// leaves the RNG values a run with every port up draws unchanged.
func LowestDelay(rng *eventsim.RNG, ports []*netem.Port) int {
	best := -1
	var bestCost units.Time
	ties := 0
	for i, p := range ports {
		if p.Down() {
			continue
		}
		c := p.EstimatedDelay()
		switch {
		case best < 0 || c < bestCost:
			best, bestCost, ties = i, c, 1
		case c == bestCost:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// RandomLive picks a uniformly random uplink, re-drawing over only the
// live uplinks when the first pick is down. In a healthy fabric it
// consumes exactly one RNG value — the historical stream of the
// random-spraying schemes — and at most two under faults.
func RandomLive(rng *eventsim.RNG, ports []*netem.Port) int {
	i := rng.Intn(len(ports))
	if !ports[i].Down() {
		return i
	}
	live := 0
	for _, p := range ports {
		if !p.Down() {
			live++
		}
	}
	if live == 0 {
		return i
	}
	k := rng.Intn(live)
	for j, p := range ports {
		if p.Down() {
			continue
		}
		if k == 0 {
			return j
		}
		k--
	}
	return i
}

// nextLive returns the first uplink after i in cyclic order that is
// up. With every port healthy it is the plain round-robin successor
// (i+1) mod n, which is also the fallback when all ports are down.
func nextLive(ports []*netem.Port, i int) int {
	n := len(ports)
	for d := 1; d <= n; d++ {
		if j := (i + d) % n; !ports[j].Down() {
			return j
		}
	}
	return (i + 1) % n
}

// ECMP returns a factory for Equal-Cost Multi-Path: a static hash of
// the flow identity selects the uplink, so a flow never moves. This is
// also the paper's "flow-level granularity" scheme.
func ECMP() Factory {
	return func(_ *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &ecmp{seed: rng.Uint64()}
	}
}

type ecmp struct {
	seed uint64
}

func (e *ecmp) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	// Hash onto the live uplinks only, the way a real switch's routing
	// protocol would withdraw a dead next-hop from the ECMP group. With
	// every port up this is exactly hash mod n — flows do not move —
	// and flows hashed onto surviving ports stay put across a failure
	// of some other port only if their index is below the dead one;
	// that remap churn is inherent to hash-mod-live ECMP.
	live := 0
	for _, p := range ports {
		if !p.Down() {
			live++
		}
	}
	if live == 0 {
		return int(pkt.Flow.Hash(e.seed) % uint64(len(ports)))
	}
	k := int(pkt.Flow.Hash(e.seed) % uint64(live))
	for i, p := range ports {
		if p.Down() {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return 0
}

// RPS returns a factory for Random Packet Spraying: every packet takes
// a uniformly random uplink. This is the paper's "packet-level
// granularity" scheme.
func RPS() Factory {
	return func(_ *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &rps{rng: rng}
	}
}

type rps struct {
	rng *eventsim.RNG
}

func (r *rps) Pick(_ *netem.Packet, ports []*netem.Port) int {
	return RandomLive(r.rng, ports)
}

// PrestoCell is the fixed flowcell size Presto uses (64 KB).
const PrestoCell = 64 * units.KiB

// idleTimeout is how long a flow-table entry whose state matters
// (Presto's cell position, Hermes's byte budget, FlowBender's hash
// offset) may sit unused before the idle sweep reclaims it. It sits far
// above any transport retransmission timer (max RTO is 1 s), so a
// live-but-stalled flow is never evicted and healthy-run forwarding is
// unchanged.
const idleTimeout = 5 * units.Second

// newIdleTable is the flow table of the schemes whose state matters:
// swept every idleTimeout, evicting rows unused for that long.
func newIdleTable[F any](sim *eventsim.Sim) *sweptTable[F] {
	return newSweptTable(sim, idleTimeout,
		func(_ *F, idle units.Time) bool { return idle >= idleTimeout })
}

// Presto returns a factory for Presto-style load balancing: each flow
// is chopped into fixed-size flowcells and consecutive cells take
// consecutive uplinks (round-robin from a random start), oblivious to
// congestion.
func Presto() Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &presto{sim: sim, rng: rng, flows: newIdleTable[prestoFlow](sim)}
	}
}

type presto struct {
	sim   *eventsim.Sim
	rng   *eventsim.RNG
	flows *sweptTable[prestoFlow]
}

type prestoFlow struct {
	port   int
	inCell units.Bytes
}

func (p *presto) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	// Header-only packets (pure ACKs, handshakes) are routed
	// statelessly: they never carry FIN, so flow-table entries created
	// for reverse-direction ACK streams would survive the whole run.
	if pkt.IsShortHeader() {
		return RandomLive(p.rng, ports)
	}
	f, _, fresh := p.flows.Get(&pkt.Flow, p.sim.Now())
	if fresh {
		p.flows.arm()
		f.port = RandomLive(p.rng, ports)
	}
	if f.inCell >= PrestoCell {
		f.inCell = 0
		f.port = nextLive(ports, f.port)
	} else if ports[f.port].Down() {
		// The cell's path died mid-cell: move the remainder to the next
		// live uplink rather than blackholing it until the cell fills.
		f.port = nextLive(ports, f.port)
	}
	f.inCell += pkt.Wire
	port := f.port
	if pkt.FIN {
		p.flows.Remove(&pkt.Flow)
	}
	return port
}

// LetFlowGap is the default flowlet inactivity timeout (150 µs, the
// value the paper uses in its motivation study).
const LetFlowGap = 150 * units.Microsecond

// flowletSweepPeriod is how often the flowlet schemes (LetFlow,
// CongaFlowlet) reclaim idle flow-table entries. Eviction is
// behaviour-neutral: an entry idle longer than the flowlet gap would
// re-pick its port on its next packet anyway, and a table miss makes
// the same draws from the same RNG stream — so runs are byte-identical
// with or without the sweep.
const flowletSweepPeriod = 500 * units.Millisecond

// flowlet is a flowlet scheme's row: the uplink the current flowlet
// is on.
type flowlet struct{ port int }

// newFlowletTable evicts the rows whose flowlet gap has expired.
func newFlowletTable(sim *eventsim.Sim, gap units.Time) *sweptTable[flowlet] {
	return newSweptTable(sim, flowletSweepPeriod,
		func(_ *flowlet, idle units.Time) bool { return idle > gap })
}

// LetFlow returns a factory for LetFlow: when the gap since a flow's
// previous packet exceeds the flowlet timeout, the flow(let) is
// re-routed to a uniformly random uplink; otherwise it sticks. This is
// also the paper's "flowlet-level granularity" scheme.
func LetFlow(gap units.Time) Factory {
	return func(sim *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &letflow{sim: sim, gap: gap, rng: rng, flows: newFlowletTable(sim, gap)}
	}
}

type letflow struct {
	sim   *eventsim.Sim
	gap   units.Time
	rng   *eventsim.RNG
	flows *sweptTable[flowlet]
}

func (l *letflow) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	// Header-only packets are routed statelessly (see presto.Pick):
	// pure ACKs never carry FIN, so tracking them would leak one table
	// entry per reverse-direction stream for the whole run.
	if pkt.IsShortHeader() {
		return RandomLive(l.rng, ports)
	}
	now := l.sim.Now()
	f, prev, fresh := l.flows.Get(&pkt.Flow, now)
	if fresh {
		l.flows.arm()
	}
	// Gap expiry is the scheme's own re-pick rule; a dead current port
	// forces one too — sticking would blackhole the flowlet.
	if fresh || now-prev > l.gap || ports[f.port].Down() {
		f.port = RandomLive(l.rng, ports)
	}
	port := f.port
	if pkt.FIN {
		l.flows.Remove(&pkt.Flow)
	}
	return port
}

// DRILL(2, 1) is the configuration the DRILL paper recommends.
const (
	drillSamples = 2
	drillMemory  = 1
)

// DRILL returns a factory for DRILL(d, m): per packet, sample d random
// queues plus the m remembered least-loaded queues from the previous
// decision, and pick the shortest.
func DRILL() Factory {
	return func(_ *eventsim.Sim, rng *eventsim.RNG, _ []*netem.Port) Balancer {
		return &drill{rng: rng}
	}
}

type drill struct {
	rng    *eventsim.RNG
	memory []int
}

func (d *drill) Pick(_ *netem.Packet, ports []*netem.Port) int {
	best := -1
	bestLen := 0
	consider := func(i int) {
		if ports[i].Down() {
			return
		}
		l := ports[i].QueueLen()
		if best < 0 || l < bestLen {
			best, bestLen = i, l
		}
	}
	for i := 0; i < drillSamples; i++ {
		consider(d.rng.Intn(len(ports)))
	}
	for _, i := range d.memory {
		if i < len(ports) {
			consider(i)
		}
	}
	if best < 0 {
		// Every sampled and remembered uplink is down: fall back to a
		// scan for any live port (fixed index 0 if none remain).
		for i := range ports {
			if !ports[i].Down() {
				consider(i)
				break
			}
		}
	}
	if best < 0 {
		best = 0
	}
	if len(d.memory) < drillMemory {
		d.memory = append(d.memory, best)
	} else {
		copy(d.memory, d.memory[1:])
		d.memory[len(d.memory)-1] = best
	}
	return best
}
