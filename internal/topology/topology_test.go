package topology

import (
	"math"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

func testConfig() Config {
	return Config{
		Leaves:       2,
		Spines:       3,
		HostsPerLeaf: 2,
		HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:        netem.QueueConfig{Capacity: 64},
	}
}

func build(t *testing.T, cfg Config, f lb.Factory) (*Fabric, *eventsim.Sim, map[int][]*netem.Packet) {
	t.Helper()
	s := eventsim.New()
	got := map[int][]*netem.Packet{}
	fab, err := New(s, cfg, f, eventsim.NewRNG(1), func(host int, pkt *netem.Packet) {
		got[host] = append(got[host], pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fab, s, got
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Leaves: 1, Spines: 0, HostsPerLeaf: 1},
		{Leaves: 1, Spines: 1, HostsPerLeaf: 0},
		{Leaves: 1, Spines: 1, HostsPerLeaf: 1}, // missing bandwidth
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated but should not", i)
		}
	}
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	over := good
	over.Overrides = []LinkOverride{{Leaf: 5, Spine: 0, Link: good.FabricLink}}
	if err := over.Validate(); err == nil {
		t.Error("out-of-range override validated")
	}
	// A port stores its queue limits in 32 bits; both shapes refuse more
	// (which only a 64-bit int can hold).
	var wideQueues []netem.QueueConfig
	if past := int64(math.MaxInt32) + 1; int64(int(past)) == past {
		wideQueues = []netem.QueueConfig{{Capacity: int(past)}, {Capacity: 256, ECNThreshold: int(past)}}
	}
	for _, q := range wideQueues {
		wide, tree := good, Config{K: 4, HostLink: good.HostLink, FabricLink: good.FabricLink, Queue: q}
		wide.Queue = q
		for _, cfg := range []Config{wide, tree} {
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "32 bits") {
				t.Errorf("queue %+v on k=%d: %v", q, cfg.K, err)
			}
		}
	}
	// Ports + hosts must fit the engine's keyed identities: 1024 leaves
	// x 509 spines x 2 hosts need 2*(2048+1024*509) + 2048 = 2^20 of
	// them, exactly the limit.
	big := good
	big.Leaves, big.Spines, big.HostsPerLeaf = 1024, 509, 2
	if err := big.Validate(); err != nil {
		t.Errorf("fabric of exactly MaxKeyedIDs identities rejected: %v", err)
	}
	for _, leaves := range []int{1025, math.MaxInt/2 + 1} { // 1<<62 on 64 bits
		big.Leaves = leaves
		err := big.Validate()
		if err == nil || !strings.Contains(err.Error(), "limit 1048576") {
			t.Errorf("%d leaves: %v", leaves, err)
		}
	}
}

func TestCountsAndHelpers(t *testing.T) {
	cfg := testConfig()
	if cfg.Hosts() != 4 {
		t.Fatalf("Hosts=%d", cfg.Hosts())
	}
	// BaseRTT: 2*(2*5 + 2*10) = 60µs.
	if got := cfg.BaseRTT(); got != 60*units.Microsecond {
		t.Fatalf("BaseRTT = %v", got)
	}
	fab, _, _ := build(t, cfg, lb.ECMP())
	// One equal-cost path per spine, and hosts 0,1 | 2,3 under leaves 0 | 1.
	for h, leaf := range []int{0, 0, 1, 1} {
		n := fab.tiers[0][leaf]
		if len(n.up) != 3 || h < n.lo || h >= n.lo+n.span*len(n.down) {
			t.Fatalf("host %d not under leaf %d (%d paths)", h, leaf, len(n.up))
		}
	}
}

func TestCrossLeafDelivery(t *testing.T) {
	fab, s, got := build(t, testConfig(), lb.ECMP())
	pkt := &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 3}, Kind: netem.Data, Payload: 1000, Wire: 1040}
	fab.Inject(0, pkt)
	s.Run()
	if len(got[3]) != 1 {
		t.Fatalf("host 3 received %d packets, want 1", len(got[3]))
	}
	// Path: host NIC + leaf uplink + spine downlink + leaf downlink =
	// 4 serializations (1040B ~ 8.32µs each) + delays 5+10+10+5 = 30µs.
	wantMin := 30 * units.Microsecond
	if s.Now() <= wantMin {
		t.Fatalf("delivery at %v, expected after %v", s.Now(), wantMin)
	}
}

// linkPorts returns a leaf-spine pair's two directed ports.
func linkPorts(t *testing.T, fab *Fabric, leaf, spine int) (up, down *netem.Port) {
	t.Helper()
	up, down, err := fab.LinkPorts(leaf, spine)
	if err != nil {
		t.Fatal(err)
	}
	return up, down
}

func TestSameLeafDeliverySkipsFabric(t *testing.T) {
	fab, s, got := build(t, testConfig(), lb.ECMP())
	pkt := &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 1}, Kind: netem.Data, Payload: 1000, Wire: 1040}
	fab.Inject(0, pkt)
	s.Run()
	if len(got[1]) != 1 {
		t.Fatalf("host 1 received %d packets", len(got[1]))
	}
	cfg := testConfig()
	for spine := 0; spine < cfg.Spines; spine++ {
		for leaf := 0; leaf < cfg.Leaves; leaf++ {
			if _, down := linkPorts(t, fab, leaf, spine); down.Queue().Stats().Enqueued != 0 {
				t.Fatal("intra-leaf packet crossed a spine")
			}
		}
	}
}

func TestInjectWrongHostPanics(t *testing.T) {
	fab, _, _ := build(t, testConfig(), lb.ECMP())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on src mismatch")
		}
	}()
	fab.Inject(1, &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 3}, Wire: 100})
}

func TestOverridesApplyToBothDirections(t *testing.T) {
	cfg := testConfig()
	slow := netem.LinkConfig{Bandwidth: 100 * units.Mbps, Delay: units.Millisecond}
	cfg.Overrides = []LinkOverride{{Leaf: 0, Spine: 1, Link: slow}}
	fab, _, _ := build(t, cfg, lb.ECMP())
	up, down := linkPorts(t, fab, 0, 1)
	if up.Link() != slow {
		t.Fatalf("uplink override not applied: %+v", up.Link())
	}
	if down.Link() != slow {
		t.Fatalf("downlink override not applied: %+v", down.Link())
	}
	// Non-overridden links untouched.
	if up, _ := linkPorts(t, fab, 0, 0); up.Link() != cfg.FabricLink {
		t.Fatal("non-overridden link changed")
	}
	if up, _ := linkPorts(t, fab, 1, 1); up.Link() != cfg.FabricLink {
		t.Fatal("other leaf's link to spine 1 changed")
	}
}

func TestEveryQueueCoversAllPorts(t *testing.T) {
	cfg := testConfig()
	fab, _, _ := build(t, cfg, lb.ECMP())
	n := 0
	labels := map[string]bool{}
	fab.EveryQueue(func(label string, q *netem.Queue) {
		n++
		labels[label] = true
	})
	// host NICs (4) + leaf down (4) + leaf up (2*3) + spine down (3*2).
	if want := 4 + 4 + 6 + 6; n != want {
		t.Fatalf("EveryQueue visited %d, want %d", n, want)
	}
	if len(labels) != n {
		t.Fatal("duplicate port labels")
	}
	for l := range labels {
		if !strings.Contains(l, "->") {
			t.Fatalf("label %q malformed", l)
		}
	}
}

func TestBalancerSeesOnlyCrossLeafTraffic(t *testing.T) {
	picks := 0
	counting := func(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		return countingBalancer{n: &picks}
	}
	fab, s, _ := build(t, testConfig(), counting)
	fab.Inject(0, &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 1}, Wire: 100}) // intra-leaf
	fab.Inject(0, &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 2}, Wire: 100}) // cross-leaf
	s.Run()
	if picks != 1 {
		t.Fatalf("balancer consulted %d times, want 1", picks)
	}
}

type countingBalancer struct{ n *int }

func (c countingBalancer) Pick(_ *netem.Packet, _ []*netem.Port) int {
	*c.n++
	return 0
}

func TestDropsCountedOnOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.Queue = netem.QueueConfig{Capacity: 1}
	fab, s, _ := build(t, cfg, lb.ECMP())
	fab.SetPool(netem.NewPacketPool())
	for i := 0; i < 50; i++ {
		fab.Inject(0, &netem.Packet{Flow: netem.FlowID{Src: 0, Dst: 3, Port: i}, Kind: netem.Data, Payload: 1460, Wire: 1500})
	}
	s.Run()
	if fab.Drops() == 0 {
		t.Fatal("burst into capacity-1 queues recorded no drops")
	}
}

func TestFabricBalancedPorts(t *testing.T) {
	fab, _, _ := build(t, testConfig(), lb.ECMP())
	ports := fab.BalancedPorts()
	if len(ports) != 2*3 { // leaves * spines
		t.Fatalf("%d balanced ports, want 6", len(ports))
	}
	if fab.Hosts() != 4 {
		t.Fatalf("Hosts() = %d", fab.Hosts())
	}
	// Order: leaf-major, spine-minor.
	if ports[0].Label() != "leaf0->spine0" || ports[5].Label() != "leaf1->spine2" {
		t.Fatalf("port order: %s ... %s", ports[0].Label(), ports[5].Label())
	}
}
