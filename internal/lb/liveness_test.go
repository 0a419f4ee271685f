package lb

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
)

func TestShortestQueueSkipsDownPorts(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	// Port 2 is the shortest queue but dead; port 1 is the live minimum.
	fill(ports, 0, 10)
	fill(ports, 1, 3)
	fill(ports, 3, 7)
	ports[2].SetDown(true)
	rng := eventsim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := ShortestQueue(rng, ports); got != 1 {
			t.Fatalf("ShortestQueue = %d, want live minimum 1", got)
		}
	}
}

func TestLowestDelaySkipsDownPorts(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	fill(ports, 1, 5)
	fill(ports, 2, 5)
	fill(ports, 3, 5)
	ports[0].SetDown(true) // the empty (cheapest) port is dead
	rng := eventsim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := LowestDelay(rng, ports); got == 0 {
			t.Fatal("LowestDelay picked the down port")
		}
	}
}

func TestAllPortsDownFallsBackDeterministically(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	for _, p := range ports {
		p.SetDown(true)
	}
	rng := eventsim.NewRNG(1)
	if got := ShortestQueue(rng, ports); got != 0 {
		t.Fatalf("all-down ShortestQueue = %d, want fixed 0", got)
	}
	if got := LowestDelay(rng, ports); got != 0 {
		t.Fatalf("all-down LowestDelay = %d, want fixed 0", got)
	}
	if got := RandomLive(rng, ports); got < 0 || got >= 4 {
		t.Fatalf("all-down RandomLive = %d, want a valid index", got)
	}
}

// TestRandomLiveHealthyMatchesPlainIntn pins the RNG-neutrality
// contract: with every port up, RandomLive consumes exactly one value
// from the stream and returns it, so pre-fault runs replay
// byte-for-byte.
func TestRandomLiveHealthyMatchesPlainIntn(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 8)
	a, b := eventsim.NewRNG(7), eventsim.NewRNG(7)
	for i := 0; i < 200; i++ {
		if got, want := RandomLive(a, ports), b.Intn(8); got != want {
			t.Fatalf("healthy RandomLive diverged from the historical stream at draw %d", i)
		}
	}
}

func TestRandomLiveAvoidsDownPorts(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	ports[0].SetDown(true)
	ports[2].SetDown(true)
	rng := eventsim.NewRNG(3)
	for i := 0; i < 200; i++ {
		if got := RandomLive(rng, ports); got == 0 || got == 2 {
			t.Fatalf("RandomLive picked down port %d", got)
		}
	}
}

func TestECMPRehashesAroundDownPort(t *testing.T) {
	b, ports, _ := newBal(t, ECMP(), 8)
	flow := netem.FlowID{Src: 1, Dst: 2, Port: 3}
	orig := b.Pick(dataPkt(flow, 1460), ports)
	ports[orig].SetDown(true)
	moved := b.Pick(dataPkt(flow, 1460), ports)
	if moved == orig {
		t.Fatal("ECMP kept hashing the flow onto its dead port")
	}
	// Stable on the fallback while the fault lasts, and back to the
	// original mapping after recovery.
	if again := b.Pick(dataPkt(flow, 1460), ports); again != moved {
		t.Fatalf("fallback not stable: %d then %d", moved, again)
	}
	ports[orig].SetDown(false)
	if got := b.Pick(dataPkt(flow, 1460), ports); got != orig {
		t.Fatalf("after recovery flow maps to %d, want original %d", got, orig)
	}
}

func TestRPSAvoidsDownPorts(t *testing.T) {
	b, ports, _ := newBal(t, RPS(), 4)
	ports[1].SetDown(true)
	flow := netem.FlowID{Src: 1, Dst: 2}
	for i := 0; i < 200; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got == 1 {
			t.Fatal("RPS sprayed onto the down port")
		}
	}
}

func TestPrestoLeavesDeadPortMidCell(t *testing.T) {
	b, ports, _ := newBal(t, Presto(), 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	cur := b.Pick(dataPkt(flow, 1460), ports)
	ports[cur].SetDown(true)
	got := b.Pick(dataPkt(flow, 1460), ports)
	if got == cur {
		t.Fatal("presto kept the cell on its dead port")
	}
	// The move is the round-robin successor, so cell order is kept.
	if want := (cur + 1) % 4; got != want {
		t.Fatalf("presto moved to %d, want next live %d", got, want)
	}
}

func TestLetFlowLeavesDeadPortWithinFlowlet(t *testing.T) {
	b, ports, _ := newBal(t, LetFlow(LetFlowGap), 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	cur := b.Pick(dataPkt(flow, 1460), ports)
	ports[cur].SetDown(true)
	// Same instant — well inside the flowlet gap — yet the flow must
	// move: sticking would blackhole the flowlet.
	for i := 0; i < 20; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got == cur {
			t.Fatal("letflow stuck to the dead port within the flowlet gap")
		}
	}
}

func TestDRILLAvoidsDownPorts(t *testing.T) {
	b, ports, _ := newBal(t, DRILL(), 8)
	for i := 0; i < 8; i++ {
		if i != 6 {
			ports[i].SetDown(true)
		}
	}
	flow := netem.FlowID{Src: 1, Dst: 2}
	for i := 0; i < 100; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got != 6 {
			t.Fatalf("DRILL picked down port %d, only 6 is live", got)
		}
	}
}
