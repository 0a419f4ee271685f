package lb

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

func TestFlowBenderStableWithoutCongestion(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 8)
	b := FlowBender(20)(s, eventsim.NewRNG(1), ports)
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)
	for i := 0; i < 100; i++ {
		s.RunUntil(s.Now() + 10*units.Microsecond)
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatal("flowbender moved an uncongested flow")
		}
	}
}

func TestFlowBenderReroutesUnderPersistentCongestion(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 8)
	b := FlowBender(5)(s, eventsim.NewRNG(1), ports)
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)
	// Keep the chosen port's queue above the marking threshold; the
	// flow must eventually re-hash away.
	moved := false
	for i := 0; i < 200 && !moved; i++ {
		for ports[first].QueueLen() < 8 {
			fill(ports, first, 4)
		}
		s.RunUntil(s.Now() + 10*units.Microsecond)
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			moved = true
		}
	}
	if !moved {
		t.Fatal("flowbender never rerouted a persistently congested flow")
	}
}

func TestCongaFlowletPicksLeastLoadedAtBoundary(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	b := CongaFlowlet()(s, eventsim.NewRNG(1), ports)
	b.(*congaFlowlet).gap = 100 * units.Microsecond
	flow := netem.FlowID{Src: 1, Dst: 2}
	// All but port 2 loaded: first pick must be 2.
	fill(ports, 0, 50)
	fill(ports, 1, 50)
	fill(ports, 3, 50)
	if got := b.Pick(dataPkt(flow, 1460), ports); got != 2 {
		t.Fatalf("initial flowlet on port %d, want 2", got)
	}
	// Within the gap the flowlet sticks even if loads shift.
	fill(ports, 2, 100)
	if got := b.Pick(dataPkt(flow, 1460), ports); got != 2 {
		t.Fatal("conga switched within a flowlet")
	}
	// After the gap it re-evaluates and escapes the now-loaded port.
	s.RunUntil(s.Now() + 150*units.Microsecond)
	// (queues have partially drained; reload the others)
	fill(ports, 0, 80)
	fill(ports, 1, 80)
	fill(ports, 3, 80)
	fill(ports, 2, 200)
	if got := b.Pick(dataPkt(flow, 1460), ports); got == 2 {
		t.Fatal("conga stayed on the most congested port after the flowlet gap")
	}
}

func TestHermesCautiousReroute(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	b := Hermes()(s, eventsim.NewRNG(1), ports)
	b.(*hermes).rerouteBytes = 10 * units.KiB
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)

	// Mild degradation (one extra packet over the others): not a 2x
	// win, Hermes must stay even after the byte budget.
	for i := range ports {
		fill(ports, i, 3)
	}
	fill(ports, first, 1)
	for i := 0; i < 20; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatal("hermes rerouted on a marginal difference")
		}
	}
	// Severe degradation: now it should move once the budget is met.
	fill(ports, first, 300)
	moved := false
	for i := 0; i < 20; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("hermes never escaped a severely degraded path")
	}
}

func TestHermesRespectsByteBudget(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	b := Hermes()(s, eventsim.NewRNG(1), ports)
	b.(*hermes).rerouteBytes = units.MiB
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)
	fill(ports, first, 300) // severe, but budget not met
	for i := 0; i < 50; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatal("hermes rerouted before sending its byte budget")
		}
	}
}

func TestWCMPWeightsByBandwidth(t *testing.T) {
	s := eventsim.New()
	mk := func(bw units.Bandwidth) *netem.Port {
		return netem.NewPort(s, netem.LinkConfig{Bandwidth: bw, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 1000}, func(*netem.Packet) {}, "p")
	}
	// Port 0 has 3x the capacity of port 1.
	ports := []*netem.Port{mk(3 * units.Gbps), mk(units.Gbps)}
	b := WCMP()(s, eventsim.NewRNG(1), ports)
	counts := make([]int, 2)
	for i := 0; i < 4000; i++ {
		counts[b.Pick(dataPkt(netem.FlowID{Src: i, Dst: i + 1, Port: i}, 1460), ports)]++
	}
	frac := float64(counts[0]) / 4000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("3:1 WCMP sent %.2f of flows to the fat link, want ~0.75", frac)
	}
	// Per-flow stability, like ECMP.
	flow := netem.FlowID{Src: 5, Dst: 6}
	first := b.Pick(dataPkt(flow, 1460), ports)
	for i := 0; i < 50; i++ {
		if b.Pick(dataPkt(flow, 1460), ports) != first {
			t.Fatal("wcmp moved a flow")
		}
	}
}

func TestRelatedSchemeNames(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 2)
	for name, f := range map[string]Factory{
		"flowbender": FlowBender(65),
		"conga":      CongaFlowlet(),
		"hermes":     Hermes(),
		"wcmp":       WCMP(),
	} {
		b := f(s, eventsim.NewRNG(1), ports)
		if b.Name() != name {
			t.Fatalf("Name() = %q, want %q", b.Name(), name)
		}
		if got := b.Pick(dataPkt(netem.FlowID{Src: 1, Dst: 2}, 1460), ports); got < 0 || got >= 2 {
			t.Fatalf("%s picked invalid port %d", name, got)
		}
	}
}

func TestRelatedSchemesCleanUpOnFIN(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	type tabled interface{ flowCount() int }
	schemes := []struct {
		name string
		bal  Balancer
		size func() int
	}{}
	cg := CongaFlowlet()(s, eventsim.NewRNG(1), ports).(*congaFlowlet)
	hm := Hermes()(s, eventsim.NewRNG(1), ports).(*hermes)
	fb := FlowBender(65)(s, eventsim.NewRNG(1), ports).(*flowBender)
	_ = schemes
	for i := 0; i < 10; i++ {
		flow := netem.FlowID{Src: i, Dst: 100}
		for j := 0; j < 3; j++ {
			cg.Pick(dataPkt(flow, 1460), ports)
			hm.Pick(dataPkt(flow, 1460), ports)
			fb.Pick(dataPkt(flow, 1460), ports)
		}
		fin := dataPkt(flow, 1460)
		fin.FIN = true
		cg.Pick(fin, ports)
		fin2 := dataPkt(flow, 1460)
		fin2.FIN = true
		hm.Pick(fin2, ports)
		fin3 := dataPkt(flow, 1460)
		fin3.FIN = true
		fb.Pick(fin3, ports)
	}
	if cg.flows.Len() != 0 || hm.flows.Len() != 0 || fb.flows.Len() != 0 {
		t.Fatalf("state leak: conga=%d hermes=%d flowbender=%d",
			cg.flows.Len(), hm.flows.Len(), fb.flows.Len())
	}
}
