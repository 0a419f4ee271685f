package lb

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// testPorts builds n uplink ports with a shared sink.
func testPorts(s *eventsim.Sim, n int) []*netem.Port {
	ports := make([]*netem.Port, n)
	for i := range ports {
		ports[i] = netem.NewPort(s,
			netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 1000},
			func(*netem.Packet) {}, "up")
	}
	return ports
}

func dataPkt(flow netem.FlowID, n units.Bytes) *netem.Packet {
	return &netem.Packet{Flow: flow, Kind: netem.Data, Payload: n, Wire: n + 40}
}

// fill puts k packets into port i's queue.
func fill(ports []*netem.Port, i, k int) {
	for j := 0; j < k; j++ {
		ports[i].Send(dataPkt(netem.FlowID{Src: 100 + i, Dst: 200}, 1460))
	}
}

func newBal(t *testing.T, f Factory, n int) (Balancer, []*netem.Port, *eventsim.Sim) {
	t.Helper()
	s := eventsim.New()
	ports := testPorts(s, n)
	return f(s, eventsim.NewRNG(1), ports), ports, s
}

func TestECMPIsStablePerFlow(t *testing.T) {
	b, ports, _ := newBal(t, ECMP(), 8)
	flow := netem.FlowID{Src: 1, Dst: 2, Port: 3}
	first := b.Pick(dataPkt(flow, 1460), ports)
	for i := 0; i < 100; i++ {
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatalf("ECMP moved flow from %d to %d", first, got)
		}
	}
}

func TestECMPSpreadsAcrossFlows(t *testing.T) {
	b, ports, _ := newBal(t, ECMP(), 8)
	used := map[int]bool{}
	for i := 0; i < 200; i++ {
		used[b.Pick(dataPkt(netem.FlowID{Src: i, Dst: i + 1, Port: i}, 1460), ports)] = true
	}
	if len(used) < 6 {
		t.Fatalf("200 flows hashed onto only %d of 8 ports", len(used))
	}
}

func TestRPSUsesAllPortsUniformly(t *testing.T) {
	b, ports, _ := newBal(t, RPS(), 4)
	counts := make([]int, 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	for i := 0; i < 4000; i++ {
		counts[b.Pick(dataPkt(flow, 1460), ports)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("port %d got %d of 4000 (non-uniform)", i, c)
		}
	}
}

func TestPrestoRotatesEveryCell(t *testing.T) {
	b, ports, _ := newBal(t, Presto(), 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	var seq []int
	// 1460B payload + 40B header = 1500B wire; ~44 packets per cell.
	for i := 0; i < 200; i++ {
		seq = append(seq, b.Pick(dataPkt(flow, 1460), ports))
	}
	// Count transitions: should change port roughly every
	// ceil(65536/1500)=44 packets, and consecutive cells take
	// consecutive ports.
	changes := 0
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1] {
			changes++
			if seq[i] != (seq[i-1]+1)%4 {
				t.Fatalf("presto jumped from %d to %d (not round-robin)", seq[i-1], seq[i])
			}
		}
	}
	if changes < 3 || changes > 5 {
		t.Fatalf("presto changed ports %d times over 200 packets, want ~4", changes)
	}
}

func TestPrestoStateClearedOnFIN(t *testing.T) {
	b, ports, _ := newBal(t, Presto(), 4)
	p := b.(*presto)
	flow := netem.FlowID{Src: 1, Dst: 2}
	b.Pick(dataPkt(flow, 1460), ports)
	if p.flows.Len() != 1 {
		t.Fatalf("flow table size %d", p.flows.Len())
	}
	fin := dataPkt(flow, 1460)
	fin.FIN = true
	b.Pick(fin, ports)
	if p.flows.Len() != 0 {
		t.Fatalf("flow table not cleared on FIN: %d", p.flows.Len())
	}
}

func TestLetFlowSticksWithinFlowlet(t *testing.T) {
	gap := 150 * units.Microsecond
	s := eventsim.New()
	ports := testPorts(s, 8)
	b := LetFlow(gap)(s, eventsim.NewRNG(1), ports)
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)
	// Packets 10µs apart: same flowlet, same port. (RunUntil, not Run:
	// the idle sweep keeps an event pending while the table is
	// non-empty, and Run would fast-forward straight to it.)
	for i := 0; i < 50; i++ {
		s.RunUntil(s.Now() + 10*units.Microsecond)
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatalf("letflow switched within flowlet gap")
		}
	}
}

func TestLetFlowSwitchesAfterGap(t *testing.T) {
	gap := 150 * units.Microsecond
	s := eventsim.New()
	ports := testPorts(s, 8)
	b := LetFlow(gap)(s, eventsim.NewRNG(1), ports)
	flow := netem.FlowID{Src: 1, Dst: 2}
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[b.Pick(dataPkt(flow, 1460), ports)] = true
		s.RunUntil(s.Now() + gap + units.Microsecond)
	}
	if len(seen) < 2 {
		t.Fatal("letflow never rerouted across idle gaps")
	}
}

func TestDRILLPrefersShortQueues(t *testing.T) {
	b, ports, _ := newBal(t, DRILL(), 8)
	// Load every port except 5 heavily.
	for i := 0; i < 8; i++ {
		if i != 5 {
			fill(ports, i, 50)
		}
	}
	counts := make([]int, 8)
	for i := 0; i < 400; i++ {
		counts[b.Pick(dataPkt(netem.FlowID{Src: i}, 1460), ports)]++
	}
	// With d=2+memory, the empty port should dominate once found.
	if counts[5] < 200 {
		t.Fatalf("drill sent only %d of 400 to the empty port: %v", counts[5], counts)
	}
}

func TestShortestQueuePicksMinimum(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	fill(ports, 0, 10)
	fill(ports, 1, 5)
	fill(ports, 2, 1)
	fill(ports, 3, 7)
	rng := eventsim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if got := ShortestQueue(rng, ports); got != 2 {
			t.Fatalf("ShortestQueue = %d, want 2", got)
		}
	}
}

func TestShortestQueueBreaksTiesUniformly(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	// All empty: ties everywhere.
	rng := eventsim.NewRNG(1)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[ShortestQueue(rng, ports)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("tie-break non-uniform at port %d: %v", i, counts)
		}
	}
	_ = s
}

func TestSchemeNames(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 2)
	for name, f := range map[string]Factory{
		"ecmp":    ECMP(),
		"rps":     RPS(),
		"presto":  Presto(),
		"letflow": LetFlow(LetFlowGap),
		"drill":   DRILL(),
	} {
		b := f(s, eventsim.NewRNG(1), ports)
		if b.Name() != name {
			t.Fatalf("Name() = %q, want %q", b.Name(), name)
		}
		// Every scheme must return a valid index.
		if got := b.Pick(dataPkt(netem.FlowID{Src: 1, Dst: 2}, 1460), ports); got < 0 || got >= 2 {
			t.Fatalf("%s picked invalid port %d", name, got)
		}
	}
}

func TestLowestDelayAvoidsSlowLink(t *testing.T) {
	s := eventsim.New()
	ports := []*netem.Port{
		netem.NewPort(s, netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
			netem.QueueConfig{Capacity: 1000}, func(*netem.Packet) {}, "fast"),
		netem.NewPort(s, netem.LinkConfig{Bandwidth: units.Gbps, Delay: 2 * units.Millisecond},
			netem.QueueConfig{Capacity: 1000}, func(*netem.Packet) {}, "slow"),
	}
	rng := eventsim.NewRNG(1)
	for i := 0; i < 20; i++ {
		if got := LowestDelay(rng, ports); got != 0 {
			t.Fatalf("LowestDelay picked the slow empty port")
		}
	}
	// Load the fast port beyond the 2ms equivalent (~167 packets).
	fill(ports, 0, 200)
	if got := LowestDelay(rng, ports); got != 1 {
		t.Fatal("LowestDelay ignored a 2.4ms backlog on the fast port")
	}
}

func TestLowestDelayMatchesShortestQueueOnSymmetricFabric(t *testing.T) {
	s := eventsim.New()
	ports := testPorts(s, 4)
	fill(ports, 0, 9)
	fill(ports, 1, 3)
	fill(ports, 2, 6)
	fill(ports, 3, 12)
	a := ShortestQueue(eventsim.NewRNG(1), ports)
	b := LowestDelay(eventsim.NewRNG(1), ports)
	if a != 1 || b != 1 {
		t.Fatalf("symmetric fabric disagreement: sq=%d, ld=%d", a, b)
	}
}
