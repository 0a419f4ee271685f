package lb

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// ackPkt builds a header-only pure ACK as the reverse direction of a
// data flow would emit it.
func ackPkt(flow netem.FlowID) *netem.Packet {
	return &netem.Packet{Flow: flow.Reversed(), Kind: netem.Ack, Wire: 40}
}

// driveFlows pushes n flows through the balancer: SYN, a few data
// packets interleaved with reverse-direction pure ACKs, then a FIN.
// This is the packet mix a real run produces, where the same leaf
// switch balances both a flow's data and the opposite flow's ACKs.
func driveFlows(b Balancer, ports []*netem.Port, n int) {
	for i := 0; i < n; i++ {
		flow := netem.FlowID{Src: i, Dst: 1000 + i, Port: i}
		syn := &netem.Packet{Flow: flow, Kind: netem.Syn, Wire: 40}
		b.Pick(syn, ports)
		for j := 0; j < 5; j++ {
			b.Pick(dataPkt(flow, 1460), ports)
			b.Pick(ackPkt(flow), ports)
		}
		fin := dataPkt(flow, 1460)
		fin.FIN = true
		b.Pick(fin, ports)
		// Trailing ACK of the FIN, after the data direction is gone.
		b.Pick(ackPkt(flow), ports)
	}
}

// TestPrestoFlowTableDrains: after every flow FINs, the table must be
// empty — pure ACK streams never FIN, so any entries created for them
// would persist for the whole run and inflate the Fig. 15b scheme-state
// measurement.
func TestPrestoFlowTableDrains(t *testing.T) {
	b, ports, _ := newBal(t, Presto(), 4)
	driveFlows(b, ports, 50)
	if n := b.(*presto).flows.Len(); n != 0 {
		t.Fatalf("presto flow table holds %d entries after all flows finished, want 0", n)
	}
}

// TestLetFlowFlowTableDrains is the LetFlow counterpart of the Presto
// leak regression.
func TestLetFlowFlowTableDrains(t *testing.T) {
	b, ports, _ := newBal(t, LetFlow(LetFlowGap), 4)
	driveFlows(b, ports, 50)
	if n := b.(*letflow).flows.Len(); n != 0 {
		t.Fatalf("letflow flow table holds %d entries after all flows finished, want 0", n)
	}
}

// TestHeaderPacketsRoutedStatelessly: a pure ACK must not create any
// flow-table state, and must still land on a valid port.
func TestHeaderPacketsRoutedStatelessly(t *testing.T) {
	for name, f := range map[string]Factory{"presto": Presto(), "letflow": LetFlow(LetFlowGap)} {
		b, ports, _ := newBal(t, f, 4)
		flow := netem.FlowID{Src: 7, Dst: 8, Port: 9}
		for i := 0; i < 10; i++ {
			got := b.Pick(ackPkt(flow), ports)
			if got < 0 || got >= len(ports) {
				t.Fatalf("%s routed ACK to invalid port %d", name, got)
			}
		}
		var size int
		switch bal := b.(type) {
		case *presto:
			size = bal.flows.Len()
		case *letflow:
			size = bal.flows.Len()
		}
		if size != 0 {
			t.Fatalf("%s created %d flow entries from pure ACKs", name, size)
		}
	}
}

// TestStatelessRoutingDeterminism: the header-only path consumes the
// balancer's own RNG stream, so runs with the same seed stay
// reproducible.
func TestStatelessRoutingDeterminism(t *testing.T) {
	pick := func() []int {
		s := eventsim.New()
		ports := testPorts(s, 8)
		b := LetFlow(LetFlowGap)(s, eventsim.NewRNG(99), ports)
		out := make([]int, 20)
		for i := range out {
			out[i] = b.Pick(ackPkt(netem.FlowID{Src: 1, Dst: 2}), ports)
		}
		return out
	}
	a, b := pick(), pick()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ACK routing diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// driveFlowsLosingFIN pushes n flows through the balancer but "loses"
// every FIN upstream: the packet mix of a run where a flow's closing
// packets die at a faulted queue before reaching this switch. Without
// an idle sweep these entries leak for the rest of the run.
func driveFlowsLosingFIN(b Balancer, ports []*netem.Port, n int) {
	for i := 0; i < n; i++ {
		flow := netem.FlowID{Src: i, Dst: 1000 + i, Port: i}
		b.Pick(&netem.Packet{Flow: flow, Kind: netem.Syn, Wire: 40}, ports)
		for j := 0; j < 5; j++ {
			b.Pick(dataPkt(flow, 1460), ports)
		}
		// FIN dropped at the faulted queue: the balancer never sees it.
	}
}

// TestPrestoIdleSweepReclaimsLostFINs: entries orphaned by FINs lost at
// a faulted queue must drain once the flows go idle, and the sweep must
// disarm afterwards so the event queue can empty.
func TestPrestoIdleSweepReclaimsLostFINs(t *testing.T) {
	b, ports, s := newBal(t, Presto(), 4)
	driveFlowsLosingFIN(b, ports, 50)
	if n := b.(*presto).flows.Len(); n != 50 {
		t.Fatalf("table holds %d entries before the sweep, want 50", n)
	}
	s.Run()
	if n := b.(*presto).flows.Len(); n != 0 {
		t.Fatalf("presto table holds %d orphaned entries after idle sweep, want 0", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after the table drained", s.Pending())
	}
}

// TestLetFlowIdleSweepReclaimsLostFINs is the LetFlow counterpart.
func TestLetFlowIdleSweepReclaimsLostFINs(t *testing.T) {
	b, ports, s := newBal(t, LetFlow(LetFlowGap), 4)
	driveFlowsLosingFIN(b, ports, 50)
	if n := b.(*letflow).flows.Len(); n != 50 {
		t.Fatalf("table holds %d entries before the sweep, want 50", n)
	}
	s.Run()
	if n := b.(*letflow).flows.Len(); n != 0 {
		t.Fatalf("letflow table holds %d orphaned entries after idle sweep, want 0", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after the table drained", s.Pending())
	}
}

// TestIdleSweepSparesLiveFlows: a flow that keeps sending (e.g. one
// retransmitting across a fault, max RTO 1s) must never be evicted by
// the Presto sweep, or its round-robin cell position would reset.
func TestIdleSweepSparesLiveFlows(t *testing.T) {
	b, ports, s := newBal(t, Presto(), 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	deadline := 12 * units.Second
	for s.Now() < deadline {
		b.Pick(dataPkt(flow, 1460), ports)
		s.RunUntil(s.Now() + units.Second)
	}
	if n := b.(*presto).flows.Len(); n != 1 {
		t.Fatalf("live flow evicted: table size %d, want 1", n)
	}
}

// relatedTables are the three related-work baselines that keep state
// for reverse-direction ACK streams and have to give it back.
func relatedTables() map[string]Factory {
	return map[string]Factory{
		"conga":      CongaFlowlet(),
		"hermes":     Hermes(),
		"flowbender": FlowBender(65),
	}
}

func relatedTableSize(t *testing.T, b Balancer) int {
	t.Helper()
	switch bal := b.(type) {
	case *congaFlowlet:
		return bal.flows.Len()
	case *hermes:
		return bal.flows.Len()
	case *flowBender:
		return bal.flows.Len()
	}
	t.Fatalf("no flow table known for %T", b)
	return 0
}

// TestRelatedIdleSweepReclaims: conga, hermes and flowbender track
// pure-ACK streams, which never FIN, so every finished flow leaves its
// ACK stream's entry behind, and a flow whose FIN was lost leaves its
// own (see TestPrestoIdleSweepReclaimsLostFINs). The idle sweep must
// reclaim both and then disarm so the event queue can empty.
func TestRelatedIdleSweepReclaims(t *testing.T) {
	for name, f := range relatedTables() {
		for _, tc := range []struct {
			what  string
			drive func(Balancer, []*netem.Port, int)
			n     int
		}{
			{"ACK streams of finished flows", driveFlows, 1000},
			{"flows whose FIN was lost", driveFlowsLosingFIN, 50},
		} {
			b, ports, s := newBal(t, f, 4)
			tc.drive(b, ports, tc.n)
			if n := relatedTableSize(t, b); n != tc.n {
				t.Fatalf("%s, %s: table holds %d entries before the sweep, want %d", name, tc.what, n, tc.n)
			}
			s.Run()
			if n := relatedTableSize(t, b); n != 0 {
				t.Fatalf("%s, %s: table holds %d entries after idle sweep, want 0", name, tc.what, n)
			}
			if s.Pending() != 0 {
				t.Fatalf("%s, %s: %d events still pending after the table drained", name, tc.what, s.Pending())
			}
		}
	}
}

// TestHermesIdleSweepSparesLiveFlows: a flow that keeps sending (one
// packet per max RTO) must keep its entry across sweeps, or it would
// lose its port and the byte budget that gates its next reroute.
func TestHermesIdleSweepSparesLiveFlows(t *testing.T) {
	b, ports, s := newBal(t, Hermes(), 4)
	flow := netem.FlowID{Src: 1, Dst: 2}
	first := b.Pick(dataPkt(flow, 1460), ports)
	entry := b.(*hermes).flows.find(flow)
	sent := units.Bytes(1500)
	for s.Now() < 12*units.Second {
		s.RunUntil(s.Now() + units.Second)
		if got := b.Pick(dataPkt(flow, 1460), ports); got != first {
			t.Fatalf("live flow moved from port %d to %d at %v", first, got, s.Now())
		}
		sent += 1500
	}
	if b.(*hermes).flows.find(flow) != entry {
		t.Fatal("live flow's entry evicted by the sweep")
	}
	if entry.sentSince != sent {
		t.Fatalf("live flow's byte budget reset: sentSince %v, want %v", entry.sentSince, sent)
	}
}
