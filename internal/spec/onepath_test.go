package spec

import (
	"reflect"
	"testing"

	"tlb/internal/lb"
	"tlb/internal/sim"
)

// TestOnePathMakesEverySchemeECMP: on a one-spine fabric every flow
// has one path, so whatever a scheme weighs it picks the same uplink,
// and every registered scheme must give ECMP's Result, scheme name and
// event count aside (a balancer's own timers add events). One load drops nothing; the other overflows the queues, so
// the loss and retransmission paths run too.
func TestOnePathMakesEverySchemeECMP(t *testing.T) {
	for _, tc := range []struct {
		name     string
		load     float64
		capacity int
		drops    bool
	}{
		{"lossless", 0.3, 256, false},
		{"lossy", 0.9, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(scheme string) *sim.Result {
				s := testSpec()
				s.Topology.Spines = 1
				s.Topology.Queue = Queue{Capacity: tc.capacity, ECNThreshold: tc.capacity / 2}
				s.Workload = Workload{
					Kind:  "poisson",
					Flows: 40,
					Load:  tc.load,
					Sizes: &SizeDist{Kind: "uniform", Min: "10KB", Max: "200KB"},
				}
				s.Scheme = Scheme{Name: scheme}
				sc, err := s.Compile()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				res.Scheme, res.Events = "", 0
				return res
			}
			want := run("ecmp")
			if got := want.Drops > 0; got != tc.drops {
				t.Fatalf("ecmp dropped %d packets; want drops %v", want.Drops, tc.drops)
			}
			for _, name := range lb.Names() {
				if got := run(name); !reflect.DeepEqual(got, want) {
					t.Errorf("%s on one path differs from ecmp: drops %d vs %d, end %v vs %v",
						name, got.Drops, want.Drops, got.EndTime, want.EndTime)
				}
			}
		})
	}
}
