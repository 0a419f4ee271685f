package topology

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// The pinned shapes carry 1 500 B packets over 1 Gbps links (12 µs on
// the wire) with every propagation delay a multiple of 6 µs, so that
// packets taking different routes keep meeting at the same instant at
// the queues they share — where port identity decides who goes first.

// pinnedLeafSpine is the leaf-spine shape of the construction-order
// pin: 3 leaves x 2 spines x 2 hosts with one overridden pair, so a
// transposed override or a reordered tier shows in the delivery order.
func pinnedLeafSpine() Config {
	return Config{
		Leaves:       3,
		Spines:       2,
		HostsPerLeaf: 2,
		HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 6 * units.Microsecond},
		FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 12 * units.Microsecond},
		Queue:        netem.QueueConfig{Capacity: 128},
		Overrides: []LinkOverride{{Leaf: 1, Spine: 0,
			Link: netem.LinkConfig{Bandwidth: 500 * units.Mbps, Delay: 36 * units.Microsecond}}},
	}
}

// pinnedFatTree is the fat-tree shape of the pin.
func pinnedFatTree(k int) Config {
	return Config{
		K:          k,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 6 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 12 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 128},
	}
}

// injectAllPairs sends one 1 500 B data packet from every host to
// every other host at t = 0, src-major, and returns how many it sent.
func injectAllPairs(net *Fabric) int {
	n := net.Hosts()
	sent := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			net.Inject(src, &netem.Packet{Flow: netem.FlowID{Src: src, Dst: dst}, Kind: netem.Data, Payload: 1460, Wire: 1500})
			sent++
		}
	}
	return sent
}

// TestConstructionOrderPinned pins the construction-order contract of
// both shapes New wires. Every port draws its DeliveryKey identity from
// Sim.ReserveKeyedID and every balancer its stream from rng.Split(), in
// construction order; same-instant deliveries are ordered by port
// identity and RPS picks by the stream each switch was handed. An
// all-pairs burst at t = 0 under RPS therefore delivers in a sequence
// that moves when ports or balancers are built in a different order,
// and the checked-in sequence pins both. Regenerate (only when the
// order is meant to change — every figure golden moves with it) with
//
//	TLB_UPDATE_GOLDEN=1 go test ./internal/topology -run TestConstructionOrderPinned
func TestConstructionOrderPinned(t *testing.T) {
	update := os.Getenv("TLB_UPDATE_GOLDEN") != ""
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"leafspine", pinnedLeafSpine()},
		{"fattree-k4", pinnedFatTree(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := eventsim.New()
			var got strings.Builder
			delivered := 0
			net, err := New(s, tc.cfg, lb.RPS(), eventsim.NewRNG(1), func(host int, pkt *netem.Packet) {
				fmt.Fprintf(&got, "%d %d %d\n", int64(s.Now()), host, pkt.Flow.Src)
				delivered++
			})
			if err != nil {
				t.Fatal(err)
			}
			sent := injectAllPairs(net)
			s.Run()
			if delivered != sent || net.Drops() != 0 {
				t.Fatalf("delivered %d of %d, %d drops", delivered, sent, net.Drops())
			}
			path := filepath.Join("testdata", "order-"+tc.name+".txt")
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with TLB_UPDATE_GOLDEN=1)", err)
			}
			if got.String() != string(want) {
				t.Errorf("delivery order differs from %s: ports or balancers are no longer built in the pinned order\n%s",
					path, firstDiff(got.String(), string(want)))
			}
		})
	}
}

// firstDiff names the first line two delivery sequences disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q (time-ns dst src)", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
