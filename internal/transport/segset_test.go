package transport

import (
	"sort"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// TestSegSetVisitOrderSorted asserts the property the sender's SACK
// scans now rely on: however the scoreboard is populated, its
// elements — in the order every sweep visits them — are ascending.
func TestSegSetVisitOrderSorted(t *testing.T) {
	rng := eventsim.NewRNG(7)
	var s segSet
	inserted := map[units.Bytes]bool{}
	for i := 0; i < 500; i++ {
		x := units.Bytes(rng.Intn(200)) * 1460
		s.Add(x)
		inserted[x] = true
	}
	keys := s.xs
	if len(keys) != len(inserted) {
		t.Fatalf("segSet has %d keys, want %d distinct", len(keys), len(inserted))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("segSet keys not sorted: %v", keys)
	}
	for _, k := range keys {
		if !inserted[k] {
			t.Fatalf("segSet invented key %d", k)
		}
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false for present key", k)
		}
	}
}

func TestSegSetCountAboveAndDropBelow(t *testing.T) {
	var s segSet
	for _, x := range []units.Bytes{4380, 0, 2920, 1460, 7300} {
		s.Add(x)
	}
	if got := s.CountAbove(1460); got != 3 {
		t.Errorf("CountAbove(1460) = %d, want 3", got)
	}
	if got := s.CountAbove(-1); got != 5 {
		t.Errorf("CountAbove(-1) = %d, want 5", got)
	}
	if got := s.CountAbove(7300); got != 0 {
		t.Errorf("CountAbove(7300) = %d, want 0", got)
	}
	s.DropBelow(2920)
	want := []units.Bytes{2920, 4380, 7300}
	if got := s.xs; len(got) != len(want) {
		t.Fatalf("after DropBelow: %v, want %v", got, want)
	}
	for i, k := range s.xs {
		if k != want[i] {
			t.Fatalf("after DropBelow: %v, want %v", s.xs, want)
		}
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset left %d keys", s.Len())
	}
}

// TestOooBufVisitOrderSorted asserts the receiver-side property: the
// reassembly buffer's sweep order (Segs) is ascending by start offset
// regardless of arrival order.
func TestOooBufVisitOrderSorted(t *testing.T) {
	rng := eventsim.NewRNG(11)
	var b oooBuf
	starts := map[units.Bytes]bool{}
	for i := 0; i < 300; i++ {
		st := units.Bytes(rng.Intn(100)) * 1000
		b.Insert(st, 1000)
		starts[st] = true
	}
	segs := b.Segs()
	if len(segs) != len(starts) {
		t.Fatalf("oooBuf has %d segments, want %d distinct", len(segs), len(starts))
	}
	if !sort.SliceIsSorted(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start }) {
		t.Fatalf("oooBuf segments not sorted: %v", segs)
	}
}

func TestOooBufTakeAndEndingAt(t *testing.T) {
	var b oooBuf
	b.Insert(3000, 1000)
	b.Insert(1000, 1000)
	b.Insert(5000, 1000)

	if s, ok := b.EndingAt(2000); !ok || s.Start != 1000 {
		t.Errorf("EndingAt(2000) = %v,%v, want segment at 1000", s, ok)
	}
	if _, ok := b.EndingAt(3000); ok {
		t.Errorf("EndingAt(3000) found a segment; none ends there")
	}
	if l, ok := b.Take(3000); !ok || l != 1000 {
		t.Errorf("Take(3000) = %d,%v", l, ok)
	}
	if _, ok := b.Take(3000); ok {
		t.Errorf("Take(3000) succeeded twice")
	}
	if _, ok := b.At(1000); !ok {
		t.Errorf("At(1000) lost a segment after unrelated Take")
	}
	if b.Empty() {
		t.Errorf("buffer reported empty with 2 segments")
	}
}

// TestFillSackBlocksDeterministicOrder pins the SACK block layout the
// sorted buffer produces: the most recent block first (RFC 2018), then
// remaining blocks in ascending sequence order — where the old
// map-backed sweep emitted them in randomized order.
func TestFillSackBlocksDeterministicOrder(t *testing.T) {
	sim := eventsim.New()
	var acks []*netem.Packet
	out := func(p *netem.Packet) { acks = append(acks, p) }
	flow := netem.FlowID{Src: 1, Dst: 2}
	r := loneFlow(sim, Config{SACK: true}, flow, 10000, discard, out).Receiver()

	seg := func(seq units.Bytes) *netem.Packet {
		return &netem.Packet{Flow: flow, Kind: netem.Data, Seq: seq, Payload: 1000, Wire: 1040}
	}
	// Three disjoint holes, arriving 2000, 6000, then 4000.
	r.onData(seg(2000))
	r.onData(seg(6000))
	r.onData(seg(4000))

	last := acks[len(acks)-1]
	want := []netem.SackBlock{
		{Start: 4000, End: 5000}, // most recent first
		{Start: 2000, End: 3000}, // then ascending
		{Start: 6000, End: 7000},
	}
	if int(last.SackCount) != len(want) {
		t.Fatalf("SackCount = %d, want %d", last.SackCount, len(want))
	}
	for i, w := range want {
		if last.SackBlocks[i] != w {
			t.Errorf("block %d = %+v, want %+v", i, last.SackBlocks[i], w)
		}
	}
}
