package topology

import (
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
)

// TestRoutingAllPairs sends one packet between every ordered host pair
// of each shape, one at a time: it must arrive exactly once, at its
// destination, with nothing dropped, after crossing two queues per tier
// it had to climb — the up/down rule leaves no other route.
func TestRoutingAllPairs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build networkBuilder
		// below[i] is how many hosts sit under one tier-i switch (one
		// pod, for the fat-tree's aggregation tier).
		below []int
	}{
		{"leafspine", leafSpineBuilder(pinnedLeafSpine()), []int{2}},
		{"fattree-k4", fatTreeBuilder(4), []int{2, 4}},
		{"fattree-k6", fatTreeBuilder(6), []int{3, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := eventsim.New()
			var gotHost, gotSrc, delivered int
			net, err := tc.build(s, lb.RPS(), eventsim.NewRNG(1), func(host int, pkt *netem.Packet) {
				gotHost, gotSrc = host, pkt.Flow.Src
				delivered++
			})
			if err != nil {
				t.Fatal(err)
			}
			enqueued := func() (n int64) {
				net.EveryQueue(func(_ string, q *netem.Queue) { n += q.Stats().Enqueued })
				return n
			}
			for src := 0; src < net.Hosts(); src++ {
				for dst := 0; dst < net.Hosts(); dst++ {
					if src == dst {
						continue
					}
					wantHops := 2
					for _, n := range tc.below {
						if src/n != dst/n {
							wantHops += 2
						}
					}
					before := enqueued()
					delivered = 0
					net.Inject(src, dataPacket(src, dst))
					s.Run()
					if delivered != 1 || gotHost != dst || gotSrc != src {
						t.Fatalf("%d->%d: delivered %d times, last at host %d from %d", src, dst, delivered, gotHost, gotSrc)
					}
					if hops := enqueued() - before; hops != int64(wantHops) {
						t.Fatalf("%d->%d crossed %d queues, want %d", src, dst, hops, wantHops)
					}
				}
			}
			if net.Drops() != 0 {
				t.Fatalf("drops: %d", net.Drops())
			}
		})
	}
}

type wildBalancer struct{ pick int }

func (wildBalancer) Name() string                            { return "wild" }
func (b wildBalancer) Pick(*netem.Packet, []*netem.Port) int { return b.pick }

// TestInvalidPickPanics: a balancer answering outside its port slice is
// a scheme bug; the one Pick site names the scheme.
func TestInvalidPickPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build networkBuilder
	}{
		{"leafspine", leafSpineBuilder(pinnedLeafSpine())},
		{"fattree", fatTreeBuilder(4)},
	} {
		for _, pick := range []int{-1, 2} { // both shapes have 2 uplinks per switch
			s := eventsim.New()
			net, err := tc.build(s, func(*eventsim.Sim, *eventsim.RNG, []*netem.Port) lb.Balancer {
				return wildBalancer{pick}
			}, eventsim.NewRNG(1), func(int, *netem.Packet) {})
			if err != nil {
				t.Fatal(err)
			}
			last := net.Hosts() - 1
			net.Inject(0, dataPacket(0, last))
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "balancer wild picked invalid uplink") {
						t.Errorf("%s, pick %d: recovered %q", tc.name, pick, msg)
					}
				}()
				s.Run()
			}()
		}
	}
}
