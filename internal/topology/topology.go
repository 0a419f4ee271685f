// Package topology builds the multi-rooted trees the paper evaluates
// on — the two-tier leaf-spine and the three-tier k-ary fat-tree — from
// one Config, through one constructor (New), as one Fabric of one
// switch type.
//
// Forwarding is the same rule at every switch of every tier: a packet
// whose destination host sits below the switch leaves through the down
// port that covers it; anything else goes up through the port the
// switch's load balancer picks. Balanced up, deterministic down — the
// uplink choice is the only place a scheme acts, exactly where the
// paper deploys TLB, and a fat-tree chains two such choices (edge, then
// aggregation). The two shapes differ only in how New wires the tiers
// together.
//
// Construction order is a contract. Every netem.Port draws its
// DeliveryKey identity from Sim.ReserveKeyedID and every balancer its
// random stream from rng.Split(), so the order ports and balancers are
// built in decides how same-instant deliveries and random picks fall —
// and with them every pinned figure. The order is: per host, its NIC
// then its switch's down port to it; then tier pair by tier pair (per
// pod on the fat-tree) all uplinks lower-switch-major followed by all
// downlinks upper-switch-major; then the balancers, tier by tier in
// switch order. TestConstructionOrderPinned holds both shapes to it,
// and BalancedPorts and EveryQueue walk the same order.
//
// Transport endpoints plug in via an injection function (host ->
// fabric) and a delivery callback (fabric -> host).
package topology

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Network is the interface the experiment runner drives traffic
// through. Fabric implements it for both shapes; a scenario's
// BuildNetwork may wrap it.
type Network interface {
	// Hosts returns the number of attached hosts.
	Hosts() int
	// Inject sends a packet from the given host into the network.
	Inject(host int, pkt *netem.Packet)
	// Drops returns total packets dropped anywhere in the network.
	Drops() int64
	// BalancedPorts returns the ports whose selection is made by load
	// balancers (the multipath links), for instrumentation.
	BalancedPorts() []*netem.Port
	// EveryQueue visits every queue in the network.
	EveryQueue(fn func(label string, q *netem.Queue))
	// SetPool makes the network release dropped packets back to the
	// run's packet pool (a switch observing Port.Send refuse a packet
	// is that packet's terminal sink). The pool is required: a run
	// sets it before its first packet, and a drop with none panics.
	SetPool(pool *netem.PacketPool)
}

var _ Network = (*Fabric)(nil)

// LinkOverride re-parameterizes one leaf<->spine pair, in both
// directions, to create the asymmetric topologies of the paper's
// Fig. 16 (extra delay) and Fig. 17 (reduced bandwidth).
type LinkOverride struct {
	Leaf, Spine int
	Link        netem.LinkConfig
}

// Config describes a multi-rooted tree, in one of two shapes.
//
// K == 0 is the leaf-spine: hosts attached to leaf (ToR) switches,
// every leaf connected to every spine, giving #spines equal-cost paths
// between hosts on different leaves.
//
// K != 0 is the k-ary fat-tree (Al-Fares et al.): k pods, each with k/2
// edge and k/2 aggregation switches; (k/2)^2 core switches; k^3/4
// hosts. There are (k/2)^2 equal-cost paths between hosts in different
// pods, chosen by TWO chained load-balancing decisions (edge picks the
// aggregation switch, aggregation picks the core): schemes run an
// instance at every switch of both tiers. K fixes the whole shape, so
// Leaves, Spines, HostsPerLeaf and Overrides must stay unset.
type Config struct {
	// K is the fat-tree arity; must be even and >= 2 when set.
	K int

	Leaves       int
	Spines       int
	HostsPerLeaf int

	// HostLink is the host<->switch link in each direction.
	HostLink netem.LinkConfig
	// FabricLink is the default switch<->switch link in each direction.
	FabricLink netem.LinkConfig
	// Queue applies to every output queue in the fabric.
	Queue netem.QueueConfig

	// Overrides punch asymmetry into specific leaf-spine pairs.
	Overrides []LinkOverride
}

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
	// A port stores both queue limits in 32 bits (netem.NewPort panics).
	if q := c.Queue; q.Capacity != int(int32(q.Capacity)) || q.ECNThreshold != int(int32(q.ECNThreshold)) {
		return fmt.Errorf("topology: queue capacity %d and ECN threshold %d must each fit in 32 bits", q.Capacity, q.ECNThreshold)
	}
	if c.K != 0 {
		return c.validateFatTree()
	}
	switch {
	case c.Leaves < 1:
		return fmt.Errorf("topology: need at least 1 leaf, got %d", c.Leaves)
	case c.Spines < 1:
		return fmt.Errorf("topology: need at least 1 spine, got %d", c.Spines)
	case c.HostsPerLeaf < 1:
		return fmt.Errorf("topology: need at least 1 host per leaf, got %d", c.HostsPerLeaf)
	case c.HostLink.Bandwidth <= 0 || c.FabricLink.Bandwidth <= 0:
		return fmt.Errorf("topology: links need positive bandwidth")
	}
	// Two ports per host link and per leaf-spine pair.
	leaves := float64(c.Leaves)
	hosts, pairs := float64(leaves*float64(c.HostsPerLeaf)), float64(leaves*float64(c.Spines))
	if err := checkSize(2*hosts+2*pairs, hosts); err != nil {
		return err
	}
	for _, o := range c.Overrides {
		if o.Leaf < 0 || o.Leaf >= c.Leaves || o.Spine < 0 || o.Spine >= c.Spines {
			return fmt.Errorf("topology: override (%d,%d) out of range", o.Leaf, o.Spine)
		}
		if o.Link.Bandwidth <= 0 {
			return fmt.Errorf("topology: override (%d,%d) needs positive bandwidth", o.Leaf, o.Spine)
		}
	}
	return nil
}

func (c *Config) validateFatTree() error {
	switch {
	case c.K < 2 || c.K%2 != 0:
		return fmt.Errorf("topology: fat-tree arity k must be even and >= 2, got %d", c.K)
	case c.Leaves != 0 || c.Spines != 0 || c.HostsPerLeaf != 0 || len(c.Overrides) != 0:
		return fmt.Errorf("topology: a fat-tree (k=%d) takes its shape from k alone; leaves, spines, hosts per leaf and overrides must be unset", c.K)
	case c.HostLink.Bandwidth <= 0 || c.FabricLink.Bandwidth <= 0:
		return fmt.Errorf("topology: fat-tree links need positive bandwidth")
	}
	// k^3/4 hosts; each of the three link tiers has k^3/4 links of two
	// ports.
	hosts := float64(c.K) * float64(c.K) * float64(c.K) / 4
	return checkSize(6*hosts, hosts)
}

// checkSize rejects a fabric the engine cannot address, before anything
// is allocated for it: every port and every host (its receiver-close
// key) takes one keyed identity, and a DeliveryKey has room for
// netem.MaxKeyedIDs of them. The counts are floats so that no
// configuration, however absurd, overflows the check itself.
func checkSize(ports, hosts float64) error {
	if ports+hosts > netem.MaxKeyedIDs {
		return fmt.Errorf("topology: %.0f ports + %.0f hosts need %.0f keyed identities, limit %d",
			ports, hosts, ports+hosts, netem.MaxKeyedIDs)
	}
	return nil
}

// Hosts returns the total number of hosts: k^3/4 on a fat-tree.
func (c *Config) Hosts() int {
	if c.K != 0 {
		return c.K * c.K * c.K / 4
	}
	return c.Leaves * c.HostsPerLeaf
}

// BaseRTT returns the round-trip propagation delay between the two
// hosts farthest apart (different leaves; different pods) over a
// default (non-overridden) path, excluding serialization: each way 2
// host links plus 2 fabric links, 4 through a fat-tree's core.
func (c *Config) BaseRTT() units.Time {
	fabric := 2 * c.FabricLink.Delay
	if c.K != 0 {
		fabric *= 2
	}
	return 2 * (2*c.HostLink.Delay + fabric)
}

// MinFabricDelay returns the minimum propagation delay over the
// inter-switch links New wires for this configuration (host links
// excluded): on a leaf-spine the overrides' delays, and FabricLink's
// unless the overrides cover every leaf-spine pair, the later of two
// overrides of one pair winning as it does in New; on a fat-tree
// FabricLink's, the only inter-switch link it has. The runner's
// flow-teardown lag is this value (see internal/sim).
func (c *Config) MinFabricDelay() units.Time {
	if c.K != 0 {
		return c.FabricLink.Delay
	}
	min, found := units.Time(0), false
	consider := func(d units.Time) {
		if !found || d < min {
			min, found = d, true
		}
	}
	wired := make(map[[2]int]bool, len(c.Overrides))
	for i := len(c.Overrides) - 1; i >= 0; i-- {
		o := c.Overrides[i]
		if pair := [2]int{o.Leaf, o.Spine}; !wired[pair] {
			wired[pair] = true
			consider(o.Link.Delay)
		}
	}
	if len(wired) < c.Leaves*c.Spines {
		consider(c.FabricLink.Delay)
	}
	return min
}

// DeliverFunc receives packets that reach their destination host.
type DeliverFunc func(host int, pkt *netem.Packet)

// Fabric is an instantiated multi-rooted tree.
type Fabric struct {
	sim   *eventsim.Sim
	queue netem.QueueConfig

	// hostNIC[h] is host h's NIC output port toward its tier-0 switch.
	hostNIC []*netem.Port
	// tiers[0] holds the switches hosts attach to, tiers[len-1] the
	// roots; hosts are numbered left to right under every tier.
	tiers [][]*node

	deliver DeliverFunc
	drops   int64
	pool    *netem.PacketPool
}

// node is a switch. It owns the contiguous hosts [lo, lo+span*len(down)):
// down[i] leads toward hosts [lo+i*span, lo+(i+1)*span) and up holds
// the equal-cost ports toward the next tier, chosen among by bal (a
// root has no up and no bal: every host is below it).
type node struct {
	f        *Fabric
	name     string
	lo, span int
	down, up []*netem.Port
	bal      lb.Balancer
}

// receive is the routing layer: down the covering port when the
// destination is below this switch, otherwise up through the balancer.
func (n *node) receive(pkt *netem.Packet) {
	if i := pkt.Flow.Dst - n.lo; i >= 0 && i < n.span*len(n.down) {
		n.f.send(n.down[i/n.span], pkt)
		return
	}
	idx := n.bal.Pick(pkt, n.up)
	if idx < 0 || idx >= len(n.up) {
		panic(fmt.Sprintf("topology: balancer %T picked invalid uplink %d of %d at %s", n.bal, idx, len(n.up), n.name))
	}
	n.f.send(n.up[idx], pkt)
}

// send forwards pkt through p. A switch (or NIC) that sees Send refuse
// a packet is its terminal sink: the drop is counted and the packet
// released.
func (f *Fabric) send(p *netem.Port, pkt *netem.Packet) {
	if !p.Send(pkt) {
		f.drops++
		f.pool.Put(pkt)
	}
}

// addTier appends a tier of n switches above the existing ones; at
// gives switch i's first host and its label.
func (f *Fabric) addTier(n, span int, at func(i int) (lo int, name string)) []*node {
	tier := make([]*node, n)
	for i := range tier {
		lo, name := at(i)
		tier[i] = &node{f: f, name: name, lo: lo, span: span}
	}
	f.tiers = append(f.tiers, tier)
	return tier
}

// attachHosts hangs perSwitch hosts off every tier-0 switch, building
// each host's NIC and the switch's down port to it back to back.
func (f *Fabric) attachHosts(perSwitch int, link netem.LinkConfig) {
	for _, sw := range f.tiers[0] {
		for i := 0; i < perSwitch; i++ {
			h := len(f.hostNIC)
			host := fmt.Sprintf("host%d", h)
			f.hostNIC = append(f.hostNIC, netem.NewPort(f.sim, link, f.queue, sw.receive, host+"->"+sw.name))
			sw.down = append(sw.down, netem.NewPort(f.sim, link, f.queue,
				func(p *netem.Packet) { f.deliver(h, p) }, sw.name+"->"+host))
		}
	}
}

// port builds the directed port from one switch to another.
func (f *Fabric) port(from, to *node, link netem.LinkConfig) *netem.Port {
	return netem.NewPort(f.sim, link, f.queue, to.receive, from.name+"->"+to.name)
}

// mesh connects every lower switch to every upper one: all uplinks,
// lower-major, then all downlinks, upper-major. link gives the pair's
// configuration by index into the two slices.
func (f *Fabric) mesh(lower, upper []*node, link func(l, u int) netem.LinkConfig) {
	for l, lo := range lower {
		for u, up := range upper {
			lo.up = append(lo.up, f.port(lo, up, link(l, u)))
		}
	}
	for u, up := range upper {
		for l, lo := range lower {
			up.down = append(up.down, f.port(up, lo, link(l, u)))
		}
	}
}

// New constructs the fabric cfg describes: the tiers bottom-up and
// their links, then the balancers — last, tier by tier in switch order,
// because a balancer may inspect its ports. factory instantiates the
// balancer of every switch that has uplinks; rng seeds per-component
// deterministic streams; deliver receives packets arriving at hosts.
func New(sim *eventsim.Sim, cfg Config, factory lb.Factory, rng *eventsim.RNG, deliver DeliverFunc) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("topology: nil deliver callback")
	}
	f := &Fabric{sim: sim, queue: cfg.Queue, deliver: deliver}
	if cfg.K != 0 {
		f.wireFatTree(cfg)
	} else {
		f.wireLeafSpine(cfg)
	}
	for _, tier := range f.tiers {
		for _, n := range tier {
			if len(n.up) > 0 {
				n.bal = factory(sim, rng.Split(), n.up)
			}
		}
	}
	return f, nil
}

func (f *Fabric) wireLeafSpine(cfg Config) {
	overrides := make(map[[2]int]netem.LinkConfig, len(cfg.Overrides))
	for _, o := range cfg.Overrides {
		overrides[[2]int{o.Leaf, o.Spine}] = o.Link
	}
	leaves := f.addTier(cfg.Leaves, 1, func(l int) (int, string) { return l * cfg.HostsPerLeaf, fmt.Sprintf("leaf%d", l) })
	spines := f.addTier(cfg.Spines, cfg.HostsPerLeaf, func(s int) (int, string) { return 0, fmt.Sprintf("spine%d", s) })
	f.attachHosts(cfg.HostsPerLeaf, cfg.HostLink)
	f.mesh(leaves, spines, func(leaf, spine int) netem.LinkConfig {
		if l, ok := overrides[[2]int{leaf, spine}]; ok {
			return l
		}
		return cfg.FabricLink
	})
}

// wireFatTree wires the k-ary tree. Host h sits at pod p, edge e, slot
// s: h = p*(k/2)^2 + e*(k/2) + s; switch p*(k/2)+i is pod p's i-th edge
// (or aggregation) switch.
func (f *Fabric) wireFatTree(cfg Config) {
	k, half := cfg.K, cfg.K/2
	perPod := half * half
	fabricLink := func(int, int) netem.LinkConfig { return cfg.FabricLink }
	edges := f.addTier(k*half, 1, func(i int) (int, string) { return i * half, fmt.Sprintf("edge%d.%d", i/half, i%half) })
	aggs := f.addTier(k*half, half, func(i int) (int, string) { return i / half * perPod, fmt.Sprintf("agg%d.%d", i/half, i%half) })
	cores := f.addTier(perPod, perPod, func(c int) (int, string) { return 0, fmt.Sprintf("core%d", c) })
	f.attachHosts(half, cfg.HostLink)

	// Edge <-> agg: a full mesh within each pod.
	for p := 0; p < k; p++ {
		f.mesh(edges[p*half:(p+1)*half], aggs[p*half:(p+1)*half], fabricLink)
	}
	// Agg <-> core is striped, not meshed: the a-th agg of every pod
	// connects to cores a*half .. a*half+half-1, so core c reaches pod p
	// through its agg c/half. Every agg->core port is built before any
	// core->agg port.
	for i, agg := range aggs {
		for j := 0; j < half; j++ {
			agg.up = append(agg.up, f.port(agg, cores[i%half*half+j], cfg.FabricLink))
		}
	}
	for c, core := range cores {
		for p := 0; p < k; p++ {
			core.down = append(core.down, f.port(core, aggs[p*half+c/half], cfg.FabricLink))
		}
	}
}

// Hosts implements Network.
func (f *Fabric) Hosts() int { return len(f.hostNIC) }

// BalancedPorts implements Network: every uplink, tier by tier in
// switch order.
func (f *Fabric) BalancedPorts() []*netem.Port {
	var out []*netem.Port
	for _, tier := range f.tiers {
		for _, n := range tier {
			out = append(out, n.up...)
		}
	}
	return out
}

// SetPool implements Network: dropped packets are released to pool,
// which must be set before the first drop.
func (f *Fabric) SetPool(pool *netem.PacketPool) { f.pool = pool }

// Inject sends a packet from the given host into the network through
// the host's NIC. Routing is by pkt.Flow.Dst.
func (f *Fabric) Inject(host int, pkt *netem.Packet) {
	if pkt.Flow.Src != host {
		panic(fmt.Sprintf("topology: host %d injecting packet with src %d", host, pkt.Flow.Src))
	}
	f.send(f.hostNIC[host], pkt)
}

// Drops returns the total packets dropped anywhere in the fabric
// (including host NIC queues).
func (f *Fabric) Drops() int64 { return f.drops }

// LinkPorts returns the two directed ports of a leaf-spine pair:
// leaf→spine and spine→leaf. It is the canonical faults.Resolver. The
// (leaf, spine) vocabulary addresses a two-tier fabric only; on a
// fat-tree it is an error rather than a way to reach edge↔agg pairs by
// accident.
func (f *Fabric) LinkPorts(leaf, spine int) (up, down *netem.Port, err error) {
	if len(f.tiers) != 2 {
		return nil, nil, fmt.Errorf("topology: links are addressed as (leaf, spine) pairs, which a %d-tier fabric does not have", len(f.tiers))
	}
	leaves, spines := f.tiers[0], f.tiers[1]
	if leaf < 0 || leaf >= len(leaves) || spine < 0 || spine >= len(spines) {
		return nil, nil, fmt.Errorf("topology: link (leaf%d, spine%d) out of range (%d leaves, %d spines)",
			leaf, spine, len(leaves), len(spines))
	}
	return leaves[leaf].up[spine], spines[spine].down[leaf], nil
}

// EveryQueue invokes fn for every queue in the fabric — host NICs, then
// each switch's down and up ports, tier by tier — for aggregate stats.
func (f *Fabric) EveryQueue(fn func(label string, q *netem.Queue)) {
	visit := func(ports []*netem.Port) {
		for _, p := range ports {
			fn(p.Label(), p.Queue())
		}
	}
	visit(f.hostNIC)
	for _, tier := range f.tiers {
		for _, n := range tier {
			visit(n.down)
			visit(n.up)
		}
	}
}
