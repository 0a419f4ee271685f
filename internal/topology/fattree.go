package topology

import (
	"fmt"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
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
	// k^3/4 hosts; each of the three link tiers has k^3/4 links of two
	// ports.
	hosts := float64(c.K) * float64(c.K) * float64(c.K) / 4
	return checkSize(6*hosts, hosts)
}

// Hosts returns k^3/4.
func (c *FatTreeConfig) Hosts() int { return c.K * c.K * c.K / 4 }

// NewFatTree builds the tree. factory instantiates a balancer per edge
// and per aggregation switch. Host h sits at pod p, edge e, slot s:
// h = p*(k/2)^2 + e*(k/2) + s; switch p*(k/2)+i is pod p's i-th edge
// (or aggregation) switch.
func NewFatTree(sim *eventsim.Sim, cfg FatTreeConfig, factory lb.Factory, rng *eventsim.RNG, deliver DeliverFunc) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, half := cfg.K, cfg.K/2
	perPod := half * half
	fabricLink := func(int, int) netem.LinkConfig { return cfg.FabricLink }
	return assemble(sim, cfg.Queue, factory, rng, deliver, func(f *Fabric) {
		edges := f.addTier(k*half, 1, func(i int) (int, string) { return i * half, fmt.Sprintf("edge%d.%d", i/half, i%half) })
		aggs := f.addTier(k*half, half, func(i int) (int, string) { return i / half * perPod, fmt.Sprintf("agg%d.%d", i/half, i%half) })
		cores := f.addTier(perPod, perPod, func(c int) (int, string) { return 0, fmt.Sprintf("core%d", c) })
		f.attachHosts(half, cfg.HostLink)

		// Edge <-> agg: a full mesh within each pod.
		for p := 0; p < k; p++ {
			f.mesh(edges[p*half:(p+1)*half], aggs[p*half:(p+1)*half], fabricLink)
		}
		// Agg <-> core is striped, not meshed: the a-th agg of every
		// pod connects to cores a*half .. a*half+half-1, so core c
		// reaches pod p through its agg c/half. Every agg->core port is
		// built before any core->agg port.
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
	})
}
