package sim

import (
	"testing"

	_ "tlb/internal/core" // registers tlb
	"tlb/internal/lb"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// tlbEnv is the environment the TLB of these tests balances for: the
// topology's fabric, its RTT stated.
func tlbEnv(topo topology.Config, rtt units.Time) lb.Env {
	return lb.Env{
		FabricBandwidth: topo.FabricLink.Bandwidth,
		BaseRTT:         rtt,
		QueueCapacity:   topo.Queue.Capacity,
	}
}

// tlbFactory is TLB on its registry defaults in env.
func tlbFactory(env lb.Env) lb.Factory {
	f, err := lb.Build("tlb", nil, "scheme.params", env)
	if err != nil {
		panic(err)
	}
	return f
}

// smallTLB is TLB on smallTopo with a 60 µs RTT.
func smallTLB() lb.Factory { return tlbFactory(tlbEnv(smallTopo(), 60*units.Microsecond)) }

func TestTLBCompletesMixedWorkload(t *testing.T) {
	flows := []workload.Flow{}
	for i := 0; i < 30; i++ {
		flows = append(flows, workload.Flow{
			Src: i % 4, Dst: 4 + (i % 4), Size: 20 * units.KB,
			Start:    units.Time(i) * 30 * units.Microsecond,
			Deadline: units.Time(i)*30*units.Microsecond + 10*units.Millisecond,
		})
	}
	for i := 0; i < 2; i++ {
		flows = append(flows, workload.Flow{Src: i, Dst: 4 + i, Size: 3 * units.MB, Start: 0})
	}
	res, err := Run(Scenario{
		Name:       "tlb-mixed",
		Topology:   smallTopo(),
		Balancer:   smallTLB(),
		SchemeName: "tlb",
		Seed:       11,
		Flows:      flows, StopWhenDone: true, MaxTime: 5 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.CompletedCount(AllFlows), len(flows); got != want {
		t.Fatalf("completed %d of %d", got, want)
	}
	if miss := res.DeadlineMissRatio(ShortFlows); miss > 0.2 {
		t.Fatalf("TLB missed %.0f%% of short deadlines in a light workload", miss*100)
	}
}

// TestTLBShortFlowsBeatECMPUnderElephants is the paper's headline
// behaviour at test scale: with elephants occupying paths, TLB's
// per-packet shortest-queue spraying of shorts should beat ECMP's
// static hashing on short AFCT.
func TestTLBShortFlowsBeatECMPUnderElephants(t *testing.T) {
	mkFlows := func() []workload.Flow {
		flows := []workload.Flow{}
		for i := 0; i < 3; i++ { // elephants from 3 of 4 senders
			flows = append(flows, workload.Flow{Src: i, Dst: 4 + i, Size: 5 * units.MB, Start: 0})
		}
		for i := 0; i < 40; i++ {
			flows = append(flows, workload.Flow{
				Src: i % 4, Dst: 4 + (3 - i%4), Size: 20 * units.KB,
				Start: 100*units.Microsecond + units.Time(i)*40*units.Microsecond,
			})
		}
		return flows
	}
	run := func(name string, f lb.Factory) units.Time {
		res, err := Run(Scenario{
			Name: "headline-" + name, Topology: smallTopo(),
			Balancer: f, SchemeName: name, Seed: 5,
			Flows: mkFlows(), StopWhenDone: true, MaxTime: 10 * units.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletedCount(AllFlows) != len(mkFlows()) {
			t.Fatalf("%s: not all flows completed", name)
		}
		return res.AFCT(ShortFlows)
	}
	tlbFCT := run("tlb", smallTLB())
	ecmpFCT := run("ecmp", lb.ECMP())
	if tlbFCT >= ecmpFCT {
		t.Fatalf("TLB short AFCT %v not better than ECMP %v", tlbFCT, ecmpFCT)
	}
}
