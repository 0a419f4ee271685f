package topology

import (
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

func ftConfig(k int) Config {
	return Config{
		K:          k,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 128},
	}
}

func buildFT(t *testing.T, k int, f lb.Factory) (*Fabric, *eventsim.Sim, map[int]int) {
	t.Helper()
	s := eventsim.New()
	got := map[int]int{}
	ft, err := New(s, ftConfig(k), f, eventsim.NewRNG(1), func(host int, pkt *netem.Packet) {
		got[host]++
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, s, got
}

func TestFatTreeValidate(t *testing.T) {
	links := ftConfig(4)
	links.K = 0
	withShape := func(mut func(*Config)) Config {
		cfg := links
		mut(&cfg)
		return cfg
	}
	bad := []Config{
		withShape(func(c *Config) { c.K = -2 }),
		withShape(func(c *Config) { c.K = 3 }),
		{K: 4}, // no bandwidth
		// k fixes the whole shape: a leaf-spine field beside it is a
		// contradiction, not a hint.
		withShape(func(c *Config) { c.K, c.Leaves = 4, 2 }),
		withShape(func(c *Config) { c.K, c.Spines = 4, 2 }),
		withShape(func(c *Config) { c.K, c.HostsPerLeaf = 4, 2 }),
		withShape(func(c *Config) { c.K, c.Overrides = 4, []LinkOverride{{Link: c.FabricLink}} }),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	good := ftConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// 7k^3/4 keyed identities (6 ports per host, plus the host): k=84
	// is the largest tree the engine can address.
	good.K = 84
	if err := good.Validate(); err != nil {
		t.Errorf("k=84 rejected: %v", err)
	}
	for _, k := range []int{86, 2000, 1 << 62} {
		good.K = k
		err := good.Validate()
		if err == nil || !strings.Contains(err.Error(), "limit 1048576") {
			t.Errorf("k=%d: %v", k, err)
		}
	}
	good.K = 90
	if err := good.Validate(); err == nil || !strings.Contains(err.Error(), "1093500 ports + 182250 hosts need 1275750 keyed identities, limit 1048576") {
		t.Errorf("k=90 error does not name the counts and the limit: %v", err)
	}
}

func TestFatTreeCounts(t *testing.T) {
	// (k/2)^2 inter-pod paths: k/2 uplinks at the edge times k/2 at
	// the agg, i.e. k^2/2 switches of k/2 balanced ports each.
	// The config answers for the tree it describes: k^3/4 hosts, and
	// host-edge-agg-core-agg-edge-host and back is 2*(2*5 + 4*10) µs.
	cfg := ftConfig(4)
	if cfg.Hosts() != 16 || cfg.BaseRTT() != 100*units.Microsecond {
		t.Fatalf("k=4 config: Hosts=%d BaseRTT=%v", cfg.Hosts(), cfg.BaseRTT())
	}
	ft, _, _ := buildFT(t, 4, lb.ECMP())
	if ft.Hosts() != 16 || len(ft.BalancedPorts()) != 16*2 {
		t.Fatalf("k=4: hosts=%d balanced ports=%d", ft.Hosts(), len(ft.BalancedPorts()))
	}
	ft8, _, _ := buildFT(t, 8, lb.ECMP())
	if ft8.Hosts() != 128 || len(ft8.BalancedPorts()) != 64*4 {
		t.Fatalf("k=8: hosts=%d balanced ports=%d", ft8.Hosts(), len(ft8.BalancedPorts()))
	}
	edges, aggs, cores := ft.tiers[0], ft.tiers[1], ft.tiers[2]
	if len(ft.tiers) != 3 || len(edges) != 8 || len(aggs) != 8 || len(cores) != 4 {
		t.Fatalf("switch counts: %d edges %d aggs %d cores", len(edges), len(aggs), len(cores))
	}
}

func dataPacket(src, dst int) *netem.Packet {
	return &netem.Packet{Flow: netem.FlowID{Src: src, Dst: dst}, Kind: netem.Data, Payload: 1000, Wire: 1040}
}

func TestFatTreeDelivery(t *testing.T) {
	ft, s, got := buildFT(t, 4, lb.ECMP())
	// Same edge (hosts 0,1), same pod different edge (0,2), inter-pod
	// (0, 12).
	cases := [][2]int{{0, 1}, {0, 2}, {0, 12}, {15, 0}, {7, 8}}
	for _, c := range cases {
		ft.Inject(c[0], dataPacket(c[0], c[1]))
	}
	s.Run()
	for _, c := range cases {
		if got[c[1]] == 0 {
			t.Fatalf("host %d never received packet from %d", c[1], c[0])
		}
	}
	if ft.Drops() != 0 {
		t.Fatalf("drops: %d", ft.Drops())
	}
}

func TestFatTreeSameEdgeSkipsFabric(t *testing.T) {
	ft, s, got := buildFT(t, 4, lb.ECMP())
	ft.Inject(0, dataPacket(0, 1))
	s.Run()
	if got[1] != 1 {
		t.Fatal("not delivered")
	}
	for _, e := range ft.tiers[0] {
		for _, p := range e.up {
			if p.Queue().Stats().Enqueued != 0 {
				t.Fatal("same-edge packet left the edge switch")
			}
		}
	}
}

func TestFatTreeIntraPodStaysInPod(t *testing.T) {
	ft, s, _ := buildFT(t, 4, lb.ECMP())
	// Hosts 0 and 2: same pod (0), different edges.
	ft.Inject(0, dataPacket(0, 2))
	s.Run()
	for _, a := range ft.tiers[1] {
		for _, p := range a.up {
			if p.Queue().Stats().Enqueued != 0 {
				t.Fatal("intra-pod packet reached a core uplink")
			}
		}
	}
}

func TestFatTreeInterPodCrossesCore(t *testing.T) {
	ft, s, got := buildFT(t, 4, lb.ECMP())
	ft.Inject(0, dataPacket(0, 12)) // pod 0 -> pod 3
	s.Run()
	if got[12] != 1 {
		t.Fatal("not delivered")
	}
	coreHits := 0
	for _, a := range ft.tiers[1] {
		for _, p := range a.up {
			coreHits += int(p.Queue().Stats().Enqueued)
		}
	}
	if coreHits != 1 {
		t.Fatalf("inter-pod packet crossed %d agg uplinks, want 1", coreHits)
	}
}

// TestFatTreeAllPairs delivers a packet between every host pair under
// per-packet random balancing, proving the routing tables are complete.
func TestFatTreeAllPairs(t *testing.T) {
	ft, s, got := buildFT(t, 4, lb.RPS())
	n := ft.Hosts()
	sent := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			ft.Inject(src, dataPacket(src, dst))
			sent++
		}
	}
	s.Run()
	recv := 0
	for _, c := range got {
		recv += c
	}
	if recv != sent {
		t.Fatalf("delivered %d of %d", recv, sent)
	}
	if ft.Drops() != 0 {
		t.Fatalf("drops: %d", ft.Drops())
	}
}

func TestFatTreeEveryQueueLabels(t *testing.T) {
	ft, _, _ := buildFT(t, 4, lb.ECMP())
	n := 0
	for range onlyLabels(ft) {
		n++
	}
	// host NICs 16 + edge down 16 + edge up 16 + agg down 16 +
	// agg up 16 + core down 16 = 96.
	if n != 96 {
		t.Fatalf("EveryQueue visited %d queues, want 96", n)
	}
}

func onlyLabels(ft *Fabric) map[string]bool {
	labels := map[string]bool{}
	ft.EveryQueue(func(label string, q *netem.Queue) {
		labels[label] = true
	})
	return labels
}

func TestFatTreeBalancerPerSwitch(t *testing.T) {
	// Count distinct balancer instances created: one per edge + agg.
	instances := 0
	counting := func(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		instances++
		return lb.ECMP()(sim, rng, ports)
	}
	buildFT(t, 4, counting)
	if instances != 16 {
		t.Fatalf("%d balancer instances, want 16 (8 edges + 8 aggs)", instances)
	}
}

// TestFatTreeLinkPortsRejected: (leaf, spine) addresses a two-tier
// fabric; on a fat-tree it must not resolve to the edge<->agg pair with
// the same indices.
func TestFatTreeLinkPortsRejected(t *testing.T) {
	ft, _, _ := buildFT(t, 4, lb.ECMP())
	if up, down, err := ft.LinkPorts(0, 0); err == nil {
		t.Fatalf("LinkPorts(0, 0) on a fat-tree resolved to %s / %s", up.Label(), down.Label())
	}
}

func TestFatTreeLabelsWellFormed(t *testing.T) {
	ft, _, _ := buildFT(t, 4, lb.ECMP())
	for l := range onlyLabels(ft) {
		if !strings.Contains(l, "->") {
			t.Fatalf("label %q malformed", l)
		}
	}
}
