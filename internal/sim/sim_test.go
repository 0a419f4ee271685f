package sim

import (
	"testing"

	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// smallTopo is a 2-leaf, 4-spine fabric with 4 hosts per leaf at
// 1 Gbps — small enough for fast tests, large enough to exercise
// multipath.
func smallTopo() topology.Config {
	return topology.Config{
		Leaves:       2,
		Spines:       4,
		HostsPerLeaf: 4,
		HostLink:     netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:        netem.QueueConfig{Capacity: 256, ECNThreshold: 20},
	}
}

// smallFatTree is the k-ary fat-tree on the same links as smallTopo.
func smallFatTree(k int) topology.Config {
	return topology.Config{
		K:          k,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	sc := Scenario{
		Name:       "single",
		Topology:   smallTopo(),
		Balancer:   lb.ECMP(),
		SchemeName: "ecmp",
		Seed:       1,
		Flows: []workload.Flow{
			{Src: 0, Dst: 4, Size: 100 * units.KB, Start: 0},
		},
		StopWhenDone: true,
		MaxTime:      units.Second,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CompletedCount(AllFlows); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	fct := res.Flows[0].FCT()
	if fct <= 0 {
		t.Fatalf("non-positive FCT %v", fct)
	}
	// 100KB at 1Gbps is 800µs of serialization; with slow start from
	// 2 segments it takes ~7 RTT rounds. Anything beyond 20ms signals
	// timeouts or scheduling bugs.
	if fct > 20*units.Millisecond {
		t.Fatalf("FCT %v unreasonably large", fct)
	}
	if res.Drops != 0 {
		t.Fatalf("unexpected drops: %d", res.Drops)
	}
}

func TestAllSchemesCompleteMixedWorkload(t *testing.T) {
	schemes := []struct {
		name string
		f    lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"rps", lb.RPS()},
		{"presto", lb.Presto()},
		{"letflow", lb.LetFlow(lb.LetFlowGap)},
		{"drill", lb.DRILL()},
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.name, func(t *testing.T) {
			t.Parallel()
			rngFlows := []workload.Flow{}
			// 20 short flows and 2 long flows, all leaf0 -> leaf1.
			for i := 0; i < 20; i++ {
				rngFlows = append(rngFlows, workload.Flow{
					Src: i % 4, Dst: 4 + (i % 4), Size: 30 * units.KB,
					Start: units.Time(i) * 50 * units.Microsecond,
				})
			}
			for i := 0; i < 2; i++ {
				rngFlows = append(rngFlows, workload.Flow{
					Src: i, Dst: 4 + i, Size: 2 * units.MB, Start: 0,
				})
			}
			sc := Scenario{
				Name:         "mixed-" + scheme.name,
				Topology:     smallTopo(),
				Balancer:     scheme.f,
				SchemeName:   scheme.name,
				Seed:         7,
				Flows:        rngFlows,
				StopWhenDone: true,
				MaxTime:      5 * units.Second,
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.CompletedCount(AllFlows), len(rngFlows); got != want {
				t.Fatalf("completed = %d, want %d", got, want)
			}
			if res.AFCT(ShortFlows) <= 0 {
				t.Fatal("zero short AFCT")
			}
			if res.Goodput(LongFlows) <= 0 {
				t.Fatal("zero long goodput")
			}
		})
	}
}

func TestConservationNoDropsMeansAllBytesArrive(t *testing.T) {
	sc := Scenario{
		Name:       "conservation",
		Topology:   smallTopo(),
		Balancer:   lb.ECMP(),
		SchemeName: "ecmp",
		Seed:       3,
		Flows: []workload.Flow{
			{Src: 0, Dst: 5, Size: 500 * units.KB, Start: 0},
			{Src: 1, Dst: 6, Size: 50 * units.KB, Start: 10 * units.Microsecond},
		},
		StopWhenDone: true,
		MaxTime:      5 * units.Second,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range res.Flows {
		if !fs.Done {
			t.Fatalf("flow %v unfinished", fs.ID)
		}
		if fs.BytesAcked != fs.Size {
			t.Fatalf("flow %v acked %d of %d bytes", fs.ID, fs.BytesAcked, fs.Size)
		}
		if res.Drops == 0 && fs.Retransmits != 0 {
			t.Fatalf("flow %v retransmitted %d with no drops", fs.ID, fs.Retransmits)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		flows := []workload.Flow{}
		for i := 0; i < 10; i++ {
			flows = append(flows, workload.Flow{
				Src: i % 4, Dst: 4 + (i+1)%4, Size: units.Bytes(10000 + i*1000),
				Start: units.Time(i) * 20 * units.Microsecond,
			})
		}
		res, err := Run(Scenario{
			Name: "det", Topology: smallTopo(),
			Balancer: lb.RPS(), SchemeName: "rps", Seed: 42,
			Flows: flows, StopWhenDone: true, MaxTime: units.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.EndTime != b.EndTime {
		t.Fatalf("end times differ: %v vs %v", a.EndTime, b.EndTime)
	}
	for i := range a.Flows {
		if a.Flows[i].FCT() != b.Flows[i].FCT() {
			t.Fatalf("flow %d FCT differs: %v vs %v", i, a.Flows[i].FCT(), b.Flows[i].FCT())
		}
	}
}
