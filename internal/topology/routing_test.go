package topology

import (
	"math"
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
		name string
		cfg  Config
		// below[i] is how many hosts sit under one tier-i switch (one
		// pod, for the fat-tree's aggregation tier).
		below []int
	}{
		{"leafspine", pinnedLeafSpine(), []int{2}},
		{"fattree-k4", pinnedFatTree(4), []int{2, 4}},
		{"fattree-k6", pinnedFatTree(6), []int{3, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := eventsim.New()
			var gotHost, gotSrc, delivered int
			net, err := New(s, tc.cfg, lb.RPS(), eventsim.NewRNG(1), func(host int, pkt *netem.Packet) {
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
		name string
		cfg  Config
	}{
		{"leafspine", pinnedLeafSpine()},
		{"fattree", pinnedFatTree(4)},
	} {
		for _, pick := range []int{-1, 2} { // both shapes have 2 uplinks per switch
			s := eventsim.New()
			net, err := New(s, tc.cfg, func(*eventsim.Sim, *eventsim.RNG, []*netem.Port) lb.Balancer {
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

// TestFatTreeSpreadsUniformlyOverCores is the claim of Randomized
// Load-balanced Routing on the fabric this package wires: under rps,
// uniform all-to-all traffic loads every agg<->core link equally. Each
// inter-pod packet picks one of its pod's (k/2)^2 agg->core ports
// uniformly, and — only if the stripe gives every agg its own k/2
// cores — arrives at a uniformly chosen core, so it leaves through one
// of the (k/2)^2 core->agg ports into its destination pod uniformly.
// Per-pod totals are fixed by the traffic, so each direction's port
// counts are k independent uniform multinomials and Pearson's statistic
// against the common mean is chi-squared with k*((k/2)^2 - 1) degrees of
// freedom. A stripe that repeats or skips a core still delivers every
// packet in the right number of hops (TestRoutingAllPairs cannot see
// it) and fails here on the core->agg side.
func TestFatTreeSpreadsUniformlyOverCores(t *testing.T) {
	const rounds = 4
	for _, k := range []int{4, 6, 8} {
		cfg := pinnedFatTree(k)
		cfg.Queue.Capacity = 1 << 16 // the bursts below must not drop
		s := eventsim.New()
		delivered := 0
		f, err := New(s, cfg, lb.RPS(), eventsim.NewRNG(1), func(int, *netem.Packet) { delivered++ })
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		for r := 0; r < rounds; r++ {
			sent += injectAllPairs(f)
			s.Run()
		}
		if delivered != sent || f.Drops() != 0 {
			t.Fatalf("k=%d: delivered %d of %d, %d drops", k, delivered, sent, f.Drops())
		}
		var up, down []float64
		f.EveryQueue(func(label string, q *netem.Queue) {
			switch n := float64(q.Stats().Enqueued); {
			case strings.HasPrefix(label, "agg") && strings.Contains(label, "->core"):
				up = append(up, n)
			case strings.HasPrefix(label, "core"):
				down = append(down, n)
			}
		})
		half := k / 2
		dof := float64(k * (half*half - 1))
		// The p = 0.001 critical value by Wilson-Hilferty (z = 3.0902):
		// within 1% of the tables for every dof here (12, 48, 120).
		h := 2 / (9 * dof)
		critical := dof * math.Pow(1-h+3.0902*math.Sqrt(h), 3)
		for _, dir := range []struct {
			name   string
			counts []float64
		}{{"agg->core", up}, {"core->agg", down}} {
			if len(dir.counts) != k*half*half {
				t.Fatalf("k=%d: %d %s ports, want %d", k, len(dir.counts), dir.name, k*half*half)
			}
			total := 0.0
			for _, n := range dir.counts {
				total += n
			}
			mean := total / float64(len(dir.counts))
			chi2 := 0.0
			for _, n := range dir.counts {
				chi2 += (n - mean) * (n - mean) / mean
			}
			t.Logf("k=%d %s: %d ports, mean %.0f packets, chi2 %.1f (dof %.0f, p=0.001 at %.1f)",
				k, dir.name, len(dir.counts), mean, chi2, dof, critical)
			if chi2 > critical {
				t.Errorf("k=%d: %s link loads are not uniform: chi2 %.1f > %.1f (dof %.0f)", k, dir.name, chi2, critical, dof)
			}
		}
	}
}
