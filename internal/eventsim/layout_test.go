package eventsim

import (
	"testing"
	"unsafe"
)

// TestEventNodeLayout pins the cache-line layout of the engine's event
// node. The queue-walk fields (at, seq, next, prev, where, owned, gen),
// the callback and the arg's type word must stay inside the first 64
// bytes so slot-list splicing and ordering comparisons touch one cache
// line, also in a netem.Port, whose first 64 bytes are its delivery
// Node; only the arg's data word, read once at dispatch, spills past it. A
// change that grows the node or pushes a hot field over the line must
// update this test deliberately (and justify it with make bench-pair
// B=BenchmarkEventQueue against the parent).
func TestEventNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(event{}), uintptr(72); got != want {
		t.Errorf("sizeof(event) = %d, want %d", got, want)
	}
	if got := unsafe.Sizeof(Node{}); got != unsafe.Sizeof(event{}) {
		t.Errorf("sizeof(Node) = %d, want sizeof(event)", got)
	}
	var e event
	offsets := []struct {
		name string
		off  uintptr
		want uintptr
	}{
		{"at", unsafe.Offsetof(e.at), 0},
		{"seq", unsafe.Offsetof(e.seq), 8},
		{"next", unsafe.Offsetof(e.next), 16},
		{"prev", unsafe.Offsetof(e.prev), 24},
		{"where", unsafe.Offsetof(e.where), 32},
		{"owned", unsafe.Offsetof(e.owned), 36},
		{"gen", unsafe.Offsetof(e.gen), 40},
		{"fn", unsafe.Offsetof(e.fn), 48},
		{"arg", unsafe.Offsetof(e.arg), 56},
	}
	for _, f := range offsets {
		if f.off != f.want {
			t.Errorf("offsetof(event.%s) = %d, want %d", f.name, f.off, f.want)
		}
	}
	// Every hot field strictly inside the first cache line.
	for _, f := range offsets {
		if f.off >= 64 {
			t.Errorf("hot field event.%s at offset %d crossed the first cache line", f.name, f.off)
		}
	}
}
