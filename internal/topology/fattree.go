package topology

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Network is the interface the experiment runner drives traffic
// through. Fabric (leaf-spine) and FatTree both implement it, so every
// scheme and experiment can run on either substrate.
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
	// is that packet's terminal sink). Nil disables releasing.
	SetPool(pool *netem.PacketPool)
}

// Compile-time checks.
var (
	_ Network = (*Fabric)(nil)
	_ Network = (*FatTree)(nil)
)

// FatTreeConfig describes a k-ary fat-tree (Al-Fares et al.): k pods,
// each with k/2 edge and k/2 aggregation switches; (k/2)^2 core
// switches; k^3/4 hosts. There are (k/2)^2 equal-cost paths between
// hosts in different pods, chosen by TWO chained load-balancing
// decisions (edge picks the aggregation switch, aggregation picks the
// core), which is what distinguishes this substrate from the
// leaf-spine: schemes run an instance at every switch of both tiers.
type FatTreeConfig struct {
	// K is the arity; must be even and >= 2.
	K int
	// HostLink, FabricLink and Queue play the same roles as in Config.
	HostLink   netem.LinkConfig
	FabricLink netem.LinkConfig
	Queue      netem.QueueConfig
}

// Validate reports configuration errors.
func (c *FatTreeConfig) Validate() error {
	switch {
	case c.K < 2 || c.K%2 != 0:
		return fmt.Errorf("topology: fat-tree arity k must be even and >= 2, got %d", c.K)
	case c.HostLink.Bandwidth <= 0 || c.FabricLink.Bandwidth <= 0:
		return fmt.Errorf("topology: fat-tree links need positive bandwidth")
	}
	return nil
}

// Hosts returns k^3/4.
func (c *FatTreeConfig) Hosts() int { return c.K * c.K * c.K / 4 }

// Paths returns the number of equal-cost inter-pod paths, (k/2)^2.
func (c *FatTreeConfig) Paths() int { return c.K * c.K / 4 }

// FatTree is an instantiated k-ary fat-tree.
type FatTree struct {
	sim *eventsim.Sim
	cfg FatTreeConfig

	hostNIC []*netem.Port
	edges   []*edgeSwitch // k*k/2, index pod*(k/2)+e
	aggs    []*aggSwitch  // k*k/2
	cores   []*coreSwitch // (k/2)^2

	deliver DeliverFunc
	drops   int64
	pool    *netem.PacketPool
}

type edgeSwitch struct {
	f    *FatTree
	pod  int
	idx  int           // within pod
	down []*netem.Port // to local hosts
	up   []*netem.Port // to pod aggs
	bal  lb.Balancer
}

type aggSwitch struct {
	f    *FatTree
	pod  int
	idx  int
	down []*netem.Port // to pod edges
	up   []*netem.Port // to cores idx*(k/2) .. idx*(k/2)+k/2-1
	bal  lb.Balancer
}

type coreSwitch struct {
	f    *FatTree
	idx  int
	down []*netem.Port // one per pod
}

// NewFatTree builds the tree. factory instantiates a balancer per edge
// and per aggregation switch.
func NewFatTree(sim *eventsim.Sim, cfg FatTreeConfig, factory lb.Factory, rng *eventsim.RNG, deliver DeliverFunc) (*FatTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("topology: nil deliver callback")
	}
	k := cfg.K
	half := k / 2
	f := &FatTree{sim: sim, cfg: cfg, deliver: deliver}

	f.cores = make([]*coreSwitch, half*half)
	for c := range f.cores {
		f.cores[c] = &coreSwitch{f: f, idx: c}
	}
	f.edges = make([]*edgeSwitch, k*half)
	f.aggs = make([]*aggSwitch, k*half)
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			f.edges[p*half+i] = &edgeSwitch{f: f, pod: p, idx: i}
			f.aggs[p*half+i] = &aggSwitch{f: f, pod: p, idx: i}
		}
	}

	// Hosts and edge down-ports. Host h sits at pod p, edge e, slot s:
	// h = p*(half*half) + e*half + s.
	f.hostNIC = make([]*netem.Port, cfg.Hosts())
	for h := 0; h < cfg.Hosts(); h++ {
		edge := f.edgeOf(h)
		host := h
		f.hostNIC[h] = netem.NewPort(sim, cfg.HostLink, cfg.Queue,
			func(pkt *netem.Packet) { edge.receive(pkt) },
			fmt.Sprintf("host%d->edge%d.%d", h, edge.pod, edge.idx))
		edge.down = append(edge.down, netem.NewPort(sim, cfg.HostLink, cfg.Queue,
			func(pkt *netem.Packet) { f.deliver(host, pkt) },
			fmt.Sprintf("edge%d.%d->host%d", edge.pod, edge.idx, h)))
	}

	// Edge <-> agg (full mesh within a pod).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			edge := f.edges[p*half+e]
			edge.up = make([]*netem.Port, half)
			for a := 0; a < half; a++ {
				agg := f.aggs[p*half+a]
				edge.up[a] = netem.NewPort(sim, cfg.FabricLink, cfg.Queue,
					func(pkt *netem.Packet) { agg.receiveUp(pkt) },
					fmt.Sprintf("edge%d.%d->agg%d.%d", p, e, p, a))
			}
		}
		for a := 0; a < half; a++ {
			agg := f.aggs[p*half+a]
			agg.down = make([]*netem.Port, half)
			for e := 0; e < half; e++ {
				edge := f.edges[p*half+e]
				agg.down[e] = netem.NewPort(sim, cfg.FabricLink, cfg.Queue,
					func(pkt *netem.Packet) { edge.receiveDown(pkt) },
					fmt.Sprintf("agg%d.%d->edge%d.%d", p, a, p, e))
			}
		}
	}

	// Agg <-> core: agg (p, a) connects to cores a*half .. a*half+half-1.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := f.aggs[p*half+a]
			agg.up = make([]*netem.Port, half)
			for j := 0; j < half; j++ {
				core := f.cores[a*half+j]
				agg.up[j] = netem.NewPort(sim, cfg.FabricLink, cfg.Queue,
					func(pkt *netem.Packet) { core.receive(pkt) },
					fmt.Sprintf("agg%d.%d->core%d", p, a, core.idx))
			}
		}
	}
	for c := range f.cores {
		core := f.cores[c]
		a := c / half // the agg index this core row attaches to
		core.down = make([]*netem.Port, k)
		for p := 0; p < k; p++ {
			agg := f.aggs[p*half+a]
			core.down[p] = netem.NewPort(sim, cfg.FabricLink, cfg.Queue,
				func(pkt *netem.Packet) { agg.receiveDown(pkt) },
				fmt.Sprintf("core%d->agg%d.%d", c, p, a))
		}
	}

	// Balancers: one per edge and per agg.
	for _, e := range f.edges {
		e.bal = factory(sim, rng.Split(), e.up)
	}
	for _, a := range f.aggs {
		a.bal = factory(sim, rng.Split(), a.up)
	}
	return f, nil
}

// Hosts implements Network.
func (f *FatTree) Hosts() int { return f.cfg.Hosts() }

// podOf returns the pod of a host.
func (f *FatTree) podOf(h int) int {
	perPod := f.cfg.K * f.cfg.K / 4
	return h / perPod
}

// edgeOf returns the edge switch of a host.
func (f *FatTree) edgeOf(h int) *edgeSwitch {
	half := f.cfg.K / 2
	perPod := half * half
	p := h / perPod
	e := (h % perPod) / half
	return f.edges[p*half+e]
}

// SetPool implements Network: dropped packets are released to pool.
func (f *FatTree) SetPool(pool *netem.PacketPool) { f.pool = pool }

// drop counts a refused packet and releases it: the switch that saw
// Send refuse the packet is its terminal sink.
func (f *FatTree) drop(pkt *netem.Packet) {
	f.drops++
	f.pool.Put(pkt)
}

// Inject implements Network.
func (f *FatTree) Inject(host int, pkt *netem.Packet) {
	if pkt.Flow.Src != host {
		panic(fmt.Sprintf("topology: host %d injecting packet with src %d", host, pkt.Flow.Src))
	}
	if !f.hostNIC[host].Send(pkt) {
		f.drop(pkt)
	}
}

// Drops implements Network.
func (f *FatTree) Drops() int64 { return f.drops }

// BalancedPorts implements Network: every edge and agg uplink.
func (f *FatTree) BalancedPorts() []*netem.Port {
	var out []*netem.Port
	for _, e := range f.edges {
		out = append(out, e.up...)
	}
	for _, a := range f.aggs {
		out = append(out, a.up...)
	}
	return out
}

// MinFabricDelay returns the minimum propagation delay over the
// agg<->core links — the inter-pod tier — for the runner's
// flow-teardown lag (see Fabric.MinFabricDelay).
func (f *FatTree) MinFabricDelay() units.Time {
	groups := make([][]*netem.Port, 0, len(f.aggs)+len(f.cores))
	for _, a := range f.aggs {
		groups = append(groups, a.up)
	}
	for _, c := range f.cores {
		groups = append(groups, c.down)
	}
	return minLinkDelay(groups)
}

// EveryQueue implements Network.
func (f *FatTree) EveryQueue(fn func(label string, q *netem.Queue)) {
	for _, p := range f.hostNIC {
		fn(p.Label(), p.Queue())
	}
	for _, e := range f.edges {
		for _, p := range e.down {
			fn(p.Label(), p.Queue())
		}
		for _, p := range e.up {
			fn(p.Label(), p.Queue())
		}
	}
	for _, a := range f.aggs {
		for _, p := range a.down {
			fn(p.Label(), p.Queue())
		}
		for _, p := range a.up {
			fn(p.Label(), p.Queue())
		}
	}
	for _, c := range f.cores {
		for _, p := range c.down {
			fn(p.Label(), p.Queue())
		}
	}
}

// hostSlot returns a host's slot index under its edge switch.
func (f *FatTree) hostSlot(h int) int {
	half := f.cfg.K / 2
	return h % half
}

func (e *edgeSwitch) receive(pkt *netem.Packet) {
	f := e.f
	dst := pkt.Flow.Dst
	dstEdge := f.edgeOf(dst)
	if dstEdge == e {
		if !e.down[f.hostSlot(dst)].Send(pkt) {
			f.drop(pkt)
		}
		return
	}
	// Up toward the aggs (intra-pod or inter-pod alike).
	idx := e.bal.Pick(pkt, e.up)
	if idx < 0 || idx >= len(e.up) {
		panic(fmt.Sprintf("topology: balancer %s picked invalid edge uplink %d", e.bal.Name(), idx))
	}
	if !e.up[idx].Send(pkt) {
		f.drop(pkt)
	}
}

// receiveDown handles packets descending into the edge from an agg.
func (e *edgeSwitch) receiveDown(pkt *netem.Packet) {
	f := e.f
	if !e.down[f.hostSlot(pkt.Flow.Dst)].Send(pkt) {
		f.drop(pkt)
	}
}

// receiveUp handles packets ascending into the agg from an edge.
func (a *aggSwitch) receiveUp(pkt *netem.Packet) {
	f := a.f
	dst := pkt.Flow.Dst
	if f.podOf(dst) == a.pod {
		// Intra-pod: straight down to the destination edge.
		half := f.cfg.K / 2
		perPod := half * half
		e := (dst % perPod) / half
		if !a.down[e].Send(pkt) {
			f.drop(pkt)
		}
		return
	}
	// Inter-pod: pick a core.
	idx := a.bal.Pick(pkt, a.up)
	if idx < 0 || idx >= len(a.up) {
		panic(fmt.Sprintf("topology: balancer %s picked invalid agg uplink %d", a.bal.Name(), idx))
	}
	if !a.up[idx].Send(pkt) {
		f.drop(pkt)
	}
}

// receiveDown handles packets descending into the agg from a core.
func (a *aggSwitch) receiveDown(pkt *netem.Packet) {
	f := a.f
	half := f.cfg.K / 2
	perPod := half * half
	dst := pkt.Flow.Dst
	e := (dst % perPod) / half
	if !a.down[e].Send(pkt) {
		f.drop(pkt)
	}
}

func (c *coreSwitch) receive(pkt *netem.Packet) {
	f := c.f
	if !c.down[f.podOf(pkt.Flow.Dst)].Send(pkt) {
		f.drop(pkt)
	}
}
