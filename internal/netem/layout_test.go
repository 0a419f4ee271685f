package netem

import (
	"testing"
	"unsafe"
)

// TestPacketLayout pins the cache-line layout of Packet. Every field a
// switch hop touches — Flow (routing/hashing), Seq/Wire/Ack
// (forwarding and byte accounting), QueueDelay and the single-byte
// flags (admission) — must stay inside the first 64 bytes, and the
// whole struct must stay at 144 bytes so pool freelists and queue
// entries stay small. Growing the packet or pushing a hot field over
// the line is a deliberate decision: update this test and re-run
// make bench.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(Packet{}), uintptr(144); got != want {
		t.Errorf("sizeof(Packet) = %d, want %d", got, want)
	}
	var p Packet
	hot := []struct {
		name string
		off  uintptr
	}{
		{"Flow", unsafe.Offsetof(p.Flow)},
		{"Seq", unsafe.Offsetof(p.Seq)},
		{"Wire", unsafe.Offsetof(p.Wire)},
		{"Ack", unsafe.Offsetof(p.Ack)},
		{"QueueDelay", unsafe.Offsetof(p.QueueDelay)},
		{"Kind", unsafe.Offsetof(p.Kind)},
		{"SackCount", unsafe.Offsetof(p.SackCount)},
		{"CE", unsafe.Offsetof(p.CE)},
		{"ECNEcho", unsafe.Offsetof(p.ECNEcho)},
		{"FIN", unsafe.Offsetof(p.FIN)},
		{"Retransmit", unsafe.Offsetof(p.Retransmit)},
		{"pooled", unsafe.Offsetof(p.pooled)},
	}
	for _, f := range hot {
		if f.off >= 64 {
			t.Errorf("hot field Packet.%s at offset %d crossed the first cache line", f.name, f.off)
		}
	}
	// The cold SACK array must stay last so it never displaces hot
	// fields.
	if off := unsafe.Offsetof(p.SackBlocks); off+unsafe.Sizeof(p.SackBlocks) != unsafe.Sizeof(Packet{}) {
		t.Errorf("SackBlocks at offset %d is no longer the trailing field", off)
	}
}

// TestPortLayout pins the cache-line layout of Port, the object a
// packet-hop touches twice (Send at admission, portDeliver at
// delivery) on a fabric with thousands of them — so each touch starts
// cold. Everything portDeliver reads or writes must sit in the first
// 64 bytes; the admission-time fields of Queue.admit and Send follow
// contiguously; the label trails; and the struct is exactly 256 bytes,
// the size class that keeps every heap-allocated Port 64-byte aligned,
// so these offsets are real line boundaries. Moving a field is a deliberate decision: update the
// offsets here and re-run make bench.
func TestPortLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(Port{}), uintptr(256); got != want {
		t.Errorf("sizeof(Port) = %d, want %d", got, want)
	}
	var p Port
	q := unsafe.Offsetof(p.q)
	ring := q + unsafe.Offsetof(p.q.entries)
	stats := q + unsafe.Offsetof(p.q.stats)
	offsets := []struct {
		name string
		off  uintptr
		want uintptr
	}{
		// Line 0: the delivery path.
		{"evPending", unsafe.Offsetof(p.evPending), 0},
		{"down", unsafe.Offsetof(p.down), 1},
		{"idx", unsafe.Offsetof(p.idx), 4},
		{"dst", unsafe.Offsetof(p.dst), 8},
		{"q.entries.buf", ring + unsafe.Offsetof(p.q.entries.buf), 16},
		{"q.entries.head", ring + unsafe.Offsetof(p.q.entries.head), 40},
		{"q.entries.n", ring + unsafe.Offsetof(p.q.entries.n), 48},
		{"q.started", q + unsafe.Offsetof(p.q.started), 56},
		// The admission path.
		{"q.waitingBytes", q + unsafe.Offsetof(p.q.waitingBytes), 64},
		{"q.cfg", q + unsafe.Offsetof(p.q.cfg), 72},
		{"q.stats", stats, 88},
		{"sim", unsafe.Offsetof(p.sim), 160},
		{"link", unsafe.Offsetof(p.link), 168},
		{"lastFinish", unsafe.Offsetof(p.lastFinish), 184},
		{"lastDelivery", unsafe.Offsetof(p.lastDelivery), 192},
		{"busyNs", unsafe.Offsetof(p.busyNs), 200},
		// Cold.
		{"label", unsafe.Offsetof(p.label), 208},
	}
	for _, f := range offsets {
		if f.off != f.want {
			t.Errorf("offsetof(Port.%s) = %d, want %d", f.name, f.off, f.want)
		}
	}
	if end := q + unsafe.Offsetof(p.q.started) + unsafe.Sizeof(p.q.started); end > 64 {
		t.Errorf("the delivery-path fields end at offset %d, past the first cache line", end)
	}
}

// TestQueueEntrySize pins the ring element at four words: the wire
// size that spares the occupancy accounting a dereference of the (cold)
// packet rides in the stamp's port-index field rather than in a fifth
// word, which would cost every port's ring a quarter more memory and
// cache (measured: +12 % on BenchmarkPortTransit's 1024-deep ring).
func TestQueueEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(queueEntry{}), uintptr(32); got != want {
		t.Errorf("sizeof(queueEntry) = %d, want %d", got, want)
	}
}
