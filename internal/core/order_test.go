package core

import (
	"sort"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
)

// TestTickSweepVisitOrderSorted asserts the idle-eviction sweep's visit
// order: sortedFlowIDs — the exact sequence tick() walks — is ordered
// by (Src, Dst, Port) no matter in which order flows entered the table.
func TestTickSweepVisitOrderSorted(t *testing.T) {
	s := eventsim.New()
	tl, ports := newTLB(s, 4, nil)
	rng := eventsim.NewRNG(3)

	// Insert flows with scrambled identities.
	n := 50
	perm := make([]int, n)
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, i := range perm {
		flow := netem.FlowID{Src: i % 7, Dst: 10 + i%5, Port: i}
		tl.Pick(dataPkt(flow, 1460), ports)
	}

	ids := tl.sortedFlowIDs()
	if len(ids) != n {
		t.Fatalf("sweep sees %d flows, want %d", len(ids), n)
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return flowIDLess(ids[i], ids[j]) }) {
		t.Fatalf("tick sweep order not sorted: %v", ids)
	}
	// The order is a total order: strict between neighbours.
	for i := 1; i < len(ids); i++ {
		if !flowIDLess(ids[i-1], ids[i]) {
			t.Fatalf("duplicate or unordered neighbours %v, %v", ids[i-1], ids[i])
		}
	}
}

// TestTickEvictsIdleFlows pins the sweep's behavior after the sorted
// rewrite: every flow idle for at least one interval is evicted in one
// tick, active flows survive.
func TestTickEvictsIdleFlows(t *testing.T) {
	s := eventsim.New()
	tl, ports := newTLB(s, 4, nil)
	// Drive the sweep by hand: the periodic ticker would otherwise run
	// its own eviction pass while the clock advances.
	tl.Stop()

	for i := 0; i < 10; i++ {
		tl.Pick(dataPkt(netem.FlowID{Src: i, Dst: 100, Port: i}, 1460), ports)
	}
	// Let one interval pass, then refresh only the even flows.
	s.At(tl.cfg.Interval, func() {})
	s.Run()
	for i := 0; i < 10; i += 2 {
		tl.Pick(dataPkt(netem.FlowID{Src: i, Dst: 100, Port: i}, 1460), ports)
	}
	evBefore := tl.Stats().Evictions
	tl.tick()
	if got := tl.Stats().Evictions - evBefore; got != 5 {
		t.Fatalf("tick evicted %d flows, want the 5 idle ones", got)
	}
	if short, long := tl.ActiveFlows(); short != 5 || long != 0 {
		t.Fatalf("after tick: short=%d long=%d, want 5 short survivors", short, long)
	}
}
