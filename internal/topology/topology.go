// Package topology builds the leaf-spine fabrics the paper evaluates
// on: hosts attached to leaf (ToR) switches, every leaf connected to
// every spine, giving #spines equal-cost paths between hosts on
// different leaves.
//
// The fabric owns all switch ports and routing; transport endpoints
// plug in via an injection function (host -> fabric) and a delivery
// callback (fabric -> host). Load balancing happens at the leaf
// switches' uplink choice, exactly where the paper deploys TLB.
package topology

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// LinkOverride re-parameterizes one leaf<->spine pair, in both
// directions, to create the asymmetric topologies of the paper's
// Fig. 16 (extra delay) and Fig. 17 (reduced bandwidth).
type LinkOverride struct {
	Leaf, Spine int
	Link        netem.LinkConfig
}

// Config describes a leaf-spine fabric.
type Config struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	// HostLink is the host<->leaf link in each direction.
	HostLink netem.LinkConfig
	// FabricLink is the default leaf<->spine link in each direction.
	FabricLink netem.LinkConfig
	// Queue applies to every output queue in the fabric.
	Queue netem.QueueConfig

	// Overrides punch asymmetry into specific leaf-spine pairs.
	Overrides []LinkOverride
}

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
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

// Hosts returns the total number of hosts.
func (c *Config) Hosts() int { return c.Leaves * c.HostsPerLeaf }

// Paths returns the number of equal-cost paths between hosts on
// different leaves (one per spine).
func (c *Config) Paths() int { return c.Spines }

// BaseRTT returns the round-trip propagation delay between hosts on
// different leaves over a default (non-overridden) path, excluding
// serialization: 2 host links + 4 fabric links, out and back.
func (c *Config) BaseRTT() units.Time {
	oneWay := 2*c.HostLink.Delay + 2*c.FabricLink.Delay
	return 2 * oneWay
}

// DeliverFunc receives packets that reach their destination host.
type DeliverFunc func(host int, pkt *netem.Packet)

// Fabric is an instantiated leaf-spine network.
type Fabric struct {
	sim *eventsim.Sim
	cfg Config

	// hostNIC[h] is host h's NIC output port toward its leaf.
	hostNIC []*netem.Port
	leaves  []*leafSwitch
	spines  []*spineSwitch

	deliver DeliverFunc
	drops   int64
	pool    *netem.PacketPool
}

type leafSwitch struct {
	f *Fabric
	// id is the leaf index.
	id int
	// down[i] leads to local host index i (0..HostsPerLeaf-1).
	down []*netem.Port
	// up[s] leads to spine s.
	up []*netem.Port
	// bal chooses among up.
	bal lb.Balancer
}

type spineSwitch struct {
	f  *Fabric
	id int
	// down[l] leads to leaf l.
	down []*netem.Port
}

// New constructs the fabric. factory instantiates each leaf's
// load balancer; rng seeds per-component deterministic streams; deliver
// receives packets arriving at hosts.
func New(sim *eventsim.Sim, cfg Config, factory lb.Factory, rng *eventsim.RNG, deliver DeliverFunc) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("topology: nil deliver callback")
	}
	f := &Fabric{sim: sim, cfg: cfg, deliver: deliver}

	overrides := make(map[[2]int]netem.LinkConfig, len(cfg.Overrides))
	for _, o := range cfg.Overrides {
		overrides[[2]int{o.Leaf, o.Spine}] = o.Link
	}
	fabricLink := func(leaf, spine int) netem.LinkConfig {
		if l, ok := overrides[[2]int{leaf, spine}]; ok {
			return l
		}
		return cfg.FabricLink
	}

	// Spines first so leaf uplinks can point at them.
	f.spines = make([]*spineSwitch, cfg.Spines)
	for s := 0; s < cfg.Spines; s++ {
		f.spines[s] = &spineSwitch{f: f, id: s}
	}
	f.leaves = make([]*leafSwitch, cfg.Leaves)
	for l := 0; l < cfg.Leaves; l++ {
		f.leaves[l] = &leafSwitch{f: f, id: l}
	}

	// Host NICs and leaf down-ports.
	f.hostNIC = make([]*netem.Port, cfg.Hosts())
	for h := 0; h < cfg.Hosts(); h++ {
		leaf := f.leaves[h/cfg.HostsPerLeaf]
		host := h
		f.hostNIC[h] = netem.NewPort(sim, cfg.HostLink, cfg.Queue,
			func(p *netem.Packet) { leaf.receive(p) },
			fmt.Sprintf("host%d->leaf%d", h, leaf.id))
		leaf.down = append(leaf.down, netem.NewPort(sim, cfg.HostLink, cfg.Queue,
			func(p *netem.Packet) { f.deliver(host, p) },
			fmt.Sprintf("leaf%d->host%d", leaf.id, h)))
	}

	// Leaf<->spine ports.
	for l := 0; l < cfg.Leaves; l++ {
		leaf := f.leaves[l]
		leaf.up = make([]*netem.Port, cfg.Spines)
		for s := 0; s < cfg.Spines; s++ {
			spine := f.spines[s]
			leaf.up[s] = netem.NewPort(sim, fabricLink(l, s), cfg.Queue,
				func(p *netem.Packet) { spine.receive(p) },
				fmt.Sprintf("leaf%d->spine%d", l, s))
		}
	}
	for s := 0; s < cfg.Spines; s++ {
		spine := f.spines[s]
		spine.down = make([]*netem.Port, cfg.Leaves)
		for l := 0; l < cfg.Leaves; l++ {
			leaf := f.leaves[l]
			spine.down[l] = netem.NewPort(sim, fabricLink(l, s), cfg.Queue,
				func(p *netem.Packet) { leaf.receive(p) },
				fmt.Sprintf("spine%d->leaf%d", s, l))
		}
	}

	// Balancers last: they may inspect the uplink ports.
	for l := 0; l < cfg.Leaves; l++ {
		f.leaves[l].bal = factory(sim, rng.Split(), f.leaves[l].up)
	}
	return f, nil
}

// Hosts implements Network.
func (f *Fabric) Hosts() int { return f.cfg.Hosts() }

// BalancedPorts implements Network: all leaf uplinks in leaf order.
func (f *Fabric) BalancedPorts() []*netem.Port {
	var out []*netem.Port
	for _, l := range f.leaves {
		out = append(out, l.up...)
	}
	return out
}

// LeafOf returns the leaf index of a host.
func (f *Fabric) LeafOf(host int) int { return host / f.cfg.HostsPerLeaf }

// SetPool implements Network: dropped packets are released to pool.
func (f *Fabric) SetPool(pool *netem.PacketPool) { f.pool = pool }

// drop counts a refused packet and releases it: the switch that saw
// Send refuse the packet is its terminal sink.
func (f *Fabric) drop(pkt *netem.Packet) {
	f.drops++
	f.pool.Put(pkt)
}

// Inject sends a packet from the given host into the network through
// the host's NIC. Routing is by pkt.Flow.Dst.
func (f *Fabric) Inject(host int, pkt *netem.Packet) {
	if pkt.Flow.Src != host {
		panic(fmt.Sprintf("topology: host %d injecting packet with src %d", host, pkt.Flow.Src))
	}
	if !f.hostNIC[host].Send(pkt) {
		f.drop(pkt)
	}
}

// Drops returns the total packets dropped anywhere in the fabric
// (including host NIC queues).
func (f *Fabric) Drops() int64 {
	n := f.drops
	return n
}

// LinkPorts returns the two directed ports of a leaf-spine pair:
// leaf→spine and spine→leaf. It is the canonical faults.Resolver for
// this fabric.
func (f *Fabric) LinkPorts(leaf, spine int) (up, down *netem.Port, err error) {
	if leaf < 0 || leaf >= f.cfg.Leaves || spine < 0 || spine >= f.cfg.Spines {
		return nil, nil, fmt.Errorf("topology: link (leaf%d, spine%d) out of range (%d leaves, %d spines)",
			leaf, spine, f.cfg.Leaves, f.cfg.Spines)
	}
	return f.leaves[leaf].up[spine], f.spines[spine].down[leaf], nil
}

// MinFabricDelay returns the minimum propagation delay over every
// inter-switch link (host links excluded). The runner derives the
// flow-teardown lag from it (see internal/sim): a pure function of the
// topology, so every run of it schedules the identical close events.
func (f *Fabric) MinFabricDelay() units.Time {
	groups := make([][]*netem.Port, 0, len(f.leaves)+len(f.spines))
	for _, leaf := range f.leaves {
		groups = append(groups, leaf.up)
	}
	for _, spine := range f.spines {
		groups = append(groups, spine.down)
	}
	return minLinkDelay(groups)
}

// minLinkDelay returns the smallest propagation delay over the ports
// of every group, 0 when there are none.
func minLinkDelay(groups [][]*netem.Port) units.Time {
	var min units.Time
	found := false
	for _, g := range groups {
		for _, p := range g {
			if d := p.Link().Delay; !found || d < min {
				min, found = d, true
			}
		}
	}
	return min
}

// EveryQueue invokes fn for every queue in the fabric (host NICs, leaf
// down/up ports, spine down ports), for aggregate stats.
func (f *Fabric) EveryQueue(fn func(label string, q *netem.Queue)) {
	for _, p := range f.hostNIC {
		fn(p.Label(), p.Queue())
	}
	for _, l := range f.leaves {
		for _, p := range l.down {
			fn(p.Label(), p.Queue())
		}
		for _, p := range l.up {
			fn(p.Label(), p.Queue())
		}
	}
	for _, s := range f.spines {
		for _, p := range s.down {
			fn(p.Label(), p.Queue())
		}
	}
}

func (l *leafSwitch) receive(pkt *netem.Packet) {
	dst := pkt.Flow.Dst
	if l.f.LeafOf(dst) == l.id {
		local := dst % l.f.cfg.HostsPerLeaf
		if !l.down[local].Send(pkt) {
			l.f.drop(pkt)
		}
		return
	}
	idx := l.bal.Pick(pkt, l.up)
	if idx < 0 || idx >= len(l.up) {
		panic(fmt.Sprintf("topology: balancer %s picked invalid uplink %d of %d", l.bal.Name(), idx, len(l.up)))
	}
	if !l.up[idx].Send(pkt) {
		l.f.drop(pkt)
	}
}

func (s *spineSwitch) receive(pkt *netem.Packet) {
	leaf := s.f.LeafOf(pkt.Flow.Dst)
	if !s.down[leaf].Send(pkt) {
		s.f.drop(pkt)
	}
}
