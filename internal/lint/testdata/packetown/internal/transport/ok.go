package transport

import "fixture/internal/netem"

// handler processes packets without retaining them: copying out the
// fields it needs is the sanctioned pattern.
type handler struct {
	lastSize int64
}

func (h *handler) receive(pool *netem.PacketPool, p *netem.Packet) {
	h.lastSize = p.Size // copy first ...
	pool.Put(p)         // ... release last
}

func putThenReturnEnds(pool *netem.PacketPool, p *netem.Packet, done bool) int64 {
	if done {
		pool.Put(p)
		return 0 // branch cannot fall through: p stays live below
	}
	return p.Size
}

func reassignmentResurrects(pool *netem.PacketPool) int64 {
	p := pool.Get()
	pool.Put(p)
	p = pool.Get() // p names a fresh packet now
	n := p.Size
	pool.Put(p)
	return n
}

func loopBodyOwnsItsPacket(pool *netem.PacketPool, n int) {
	for i := 0; i < n; i++ {
		p := pool.Get()
		pool.Put(p)
	}
}

func annotatedIdentityCheck(pool *netem.PacketPool) bool {
	p := pool.Get()
	pool.Put(p)
	//simlint:allow packetown(identity comparison of the recycled pointer is the point of this probe)
	return pool.Get() == p
}

// handoff is a message carrying a whole-value packet copy, sanctioned with a reasoned directive because the
// pool-owned original is never referenced.
type handoff struct {
	//simlint:allow packetown(whole-value copy; the pool-owned original is released separately)
	pkt netem.Packet
}
