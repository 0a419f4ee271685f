package core

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
)

// growLong pushes a flow past the 100KB threshold so it parks as a
// long flow, and returns the port it parked on.
func growLong(tl *TLB, ports []*netem.Port, flow netem.FlowID) int {
	port := -1
	for i := 0; i < 80; i++ {
		port = tl.Pick(dataPkt(flow, 1460), ports)
	}
	return port
}

// TestLongFlowEvictedOffDeadPortImmediately: a parked long flow whose
// uplink goes down must reroute on its next packet — a dead port's
// queue never reaches q_th (admission drops do not queue), so the
// normal threshold rule would strand the flow in RTO loops until the
// link recovered.
func TestLongFlowEvictedOffDeadPortImmediately(t *testing.T) {
	s := eventsim.New()
	// Pin q_th above the (empty) queue lengths so the only reroute
	// trigger in play is the dead port itself.
	tl, ports := newTLB(s, 4, func(c *Config) { c.FixedQTh = 5 })
	flow := netem.FlowID{Src: 1, Dst: 2}
	parked := growLong(tl, ports, flow)
	if _, long := tl.ActiveFlows(); long != 1 {
		t.Fatalf("flow not classified long")
	}
	before := tl.Stats().Reroutes
	ports[parked].SetDown(true)
	got := tl.Pick(dataPkt(flow, 1460), ports)
	if got == parked {
		t.Fatalf("long flow still forwarded to dead port %d", parked)
	}
	if ports[got].Down() {
		t.Fatalf("long flow rerouted to another down port %d", got)
	}
	if tl.Stats().Reroutes != before+1 {
		t.Fatalf("Reroutes = %d, want %d", tl.Stats().Reroutes, before+1)
	}
	// The flow now sticks to its new live port.
	if next := tl.Pick(dataPkt(flow, 1460), ports); next != got {
		t.Fatalf("rerouted flow moved again: %d then %d", got, next)
	}
}

// TestShortFlowLeavesDeadPortDespiteGuards: the hysteresis and
// reorder-safety guards must not pin a short flow to a dead uplink —
// everything in flight there is already lost.
func TestShortFlowLeavesDeadPortDespiteGuards(t *testing.T) {
	s := eventsim.New()
	tl, ports := newTLB(s, 4, func(c *Config) { c.ShortHysteresis = 100 })
	flow := netem.FlowID{Src: 3, Dst: 4}
	cur := tl.Pick(dataPkt(flow, 1460), ports)
	ports[cur].SetDown(true)
	got := tl.Pick(dataPkt(flow, 1460), ports)
	if got == cur {
		t.Fatal("short flow stuck to its dead port behind the hysteresis guard")
	}
	if ports[got].Down() {
		t.Fatalf("short flow moved to another down port %d", got)
	}
}

// TestControlPacketsRoutedAroundDeadPort: header-only reverse traffic
// uses the live-aware lowest-delay scan.
func TestControlPacketsRoutedAroundDeadPort(t *testing.T) {
	s := eventsim.New()
	tl, ports := newTLB(s, 2, nil)
	ports[0].SetDown(true)
	ack := &netem.Packet{Flow: netem.FlowID{Src: 9, Dst: 8}, Kind: netem.Ack, Wire: 40}
	for i := 0; i < 10; i++ {
		if got := tl.Pick(ack, ports); got != 1 {
			t.Fatalf("ACK routed to dead port %d", got)
		}
	}
}

// TestTLBTableDrainsWhenFINLostAtFaultedQueue: TLB's idle sweep (tick)
// already reclaims entries whose FIN died at a faulted queue; pin that
// so the three stateful schemes share the no-leak guarantee.
func TestTLBTableDrainsWhenFINLostAtFaultedQueue(t *testing.T) {
	s := eventsim.New()
	tl, ports := newTLB(s, 4, nil)
	for i := 0; i < 20; i++ {
		flow := netem.FlowID{Src: i, Dst: 100 + i}
		tl.Pick(&netem.Packet{Flow: flow, Kind: netem.Syn, Wire: 40}, ports)
		for j := 0; j < 5; j++ {
			tl.Pick(dataPkt(flow, 1460), ports)
		}
		// FIN lost at the faulted queue: never seen here.
	}
	if short, long := tl.ActiveFlows(); short+long != 20 {
		t.Fatalf("table size %d before sweep, want 20", short+long)
	}
	// Two idle intervals are ample for the periodic sweep.
	s.RunUntil(s.Now() + 2*tl.cfg.Interval)
	if short, long := tl.ActiveFlows(); short+long != 0 {
		t.Fatalf("table holds %d entries after idle sweep, want 0", short+long)
	}
}
