package transport

import (
	"fmt"
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Host is one simulated machine. The fabric delivers packets to
// Receive, which hands each to the endpoint the packet names; endpoints
// take their packets from the host's pool and inject them through the
// out function the host was built with (typically fabric.Inject).
type Host struct {
	sim *eventsim.Sim
	id  int
	out func(*netem.Packet)

	// senders registers the open senders for the duplicate-open check
	// and the end-of-run sweep of unfinished flows; no packet reads it.
	senders map[netem.FlowID]*Sender

	// pool, when set via SetPool, supplies every packet the host's
	// endpoints emit and receives every packet Receive has finished
	// dispatching: the host is the terminal sink of delivered packets
	// (endpoint handlers copy what they need and never retain the
	// *Packet). Nil falls back to plain allocation.
	pool *netem.PacketPool

	// closeKey is the host's construction-order keyed identity
	// (eventsim.Sim.ReserveKeyedID), used by CloseReceiverAt to place
	// deferred teardown events at a position that is a pure function of
	// (completion time, host) — the same traffic-only ordering contract
	// netem ports use for deliveries.
	closeKey uint32
}

// NewHost creates a host with the given network injection function.
func NewHost(sim *eventsim.Sim, id int, out func(*netem.Packet)) *Host {
	return &Host{
		sim:      sim,
		id:       id,
		out:      out,
		senders:  make(map[netem.FlowID]*Sender),
		closeKey: sim.ReserveKeyedID(),
	}
}

// SetPool makes the host's endpoints allocate from pool and the host
// release every delivered packet back to it after dispatching it (see
// netem.PacketPool for the ownership contract). It must be the run's
// single per-simulation pool, the one the fabric releases drops to.
// Callers that keep delivered packets alive — test pipes that re-deliver
// them, for instance — must leave the pool unset.
func (h *Host) SetPool(pool *netem.PacketPool) { h.pool = pool }

// flow is one flow as allocated: both endpoints, each pointing at the other.
type flow struct {
	snd Sender
	rcv Receiver
}

// Open allocates the two endpoints of one flow together, wires each to
// the other and registers the (idle) sender with src until it
// completes. cfg must outlive the flow: the endpoints share it. done
// (optional) fires once, when the last byte is acknowledged, after src
// has released the sender.
func Open(cfg *Config, src, dst *Host, id netem.FlowID, size units.Bytes, done func(*Sender)) *Sender {
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow %v with non-positive size %d", id, size))
	}
	if id.Src != src.id || id.Dst != dst.id {
		panic(fmt.Sprintf("transport: flow %v opened from host %d to host %d", id, src.id, dst.id))
	}
	if _, dup := src.senders[id]; dup {
		panic(fmt.Sprintf("transport: duplicate sender for flow %v", id))
	}
	f := &flow{}
	s, r := &f.snd, &f.rcv
	stats := &FlowStats{ID: id, Size: size}
	*s = Sender{
		ep:       netem.Endpoint{Host: src.id, Owner: s},
		peer:     r,
		sim:      src.sim,
		cfg:      cfg,
		host:     src,
		done:     done,
		id:       id,
		size:     size,
		cwnd:     float64(InitCwnd * MSS),
		ssthresh: float64(RcvWindow),
		alpha:    1.0,
		Stats:    stats,
	}
	*r = Receiver{
		ep:    netem.Endpoint{Host: dst.id, Owner: r},
		peer:  s,
		sim:   dst.sim,
		cfg:   cfg,
		host:  dst,
		id:    id,
		size:  size,
		Stats: stats,
	}
	src.senders[id] = s
	return s
}

func closeReceiverFire(arg any) { arg.(*Receiver).closed = true }

// CloseReceiverAt tears down a receiving endpoint of this host (the
// runner calls it once the flow is done): from then on it ignores what
// arrives, as a host that has forgotten the flow would. With a lag the
// close is a keyed event at done+lag, ordered by (done, host): teardown
// modelled as a finite-latency notification rather than an
// instantaneous side effect. The key is built from the completion time,
// so a late retransmission's fate (consumed by a still-open receiver
// versus dropped by a closed one) is a function of the traffic alone.
// Two flows completing at the same instant toward the same host collide
// on the key; each close touches only its own receiver, so their
// relative order is immaterial. Without a lag the close is immediate.
func (h *Host) CloseReceiverAt(done, lag units.Time, r *Receiver) {
	if lag <= 0 {
		r.closed = true
		return
	}
	h.sim.AtKey(done+lag, netem.DeliveryKey(done, h.closeKey), closeReceiverFire, r)
}

// EachOpenSenderSorted visits the still-open senders in FlowID order
// (all share this host as Src) — completed flows left the registry at
// completion, so this is the deterministic end-of-run sweep streaming
// stats fold unfinished flows with.
func (h *Host) EachOpenSenderSorted(fn func(*Sender)) {
	open := make([]*Sender, 0, len(h.senders))
	//simlint:allow maporder(senders are collected here and sorted below before any use)
	for _, s := range h.senders {
		open = append(open, s)
	}
	sort.Slice(open, func(i, j int) bool {
		a, b := open[i].id, open[j].id
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Port < b.Port
	})
	for _, s := range open {
		fn(s)
	}
}

// Receive hands a delivered packet to the endpoint it names, then
// releases it to the pool (when one is set): delivery is the packet's
// terminal sink. There is no lookup: a packet that names no endpoint is
// dropped, a completed sender and a closed receiver ignore theirs (as a
// real host would RST-and-ignore), and one whose endpoint lives on
// another host was misrouted by the fabric, which is a bug.
func (h *Host) Receive(pkt *netem.Packet) {
	if ep := pkt.To; ep != nil {
		if ep.Host != h.id {
			panic(fmt.Sprintf("transport: %v packet of flow %v for an endpoint on host %d delivered to host %d", pkt.Kind, pkt.Flow, ep.Host, h.id))
		}
		switch e := ep.Owner.(type) {
		case *Receiver:
			switch {
			case e.closed:
			case pkt.Kind == netem.Data:
				e.onData(pkt)
			case pkt.Kind == netem.Syn:
				e.onSyn(pkt)
			}
		case *Sender:
			switch pkt.Kind {
			case netem.Ack:
				e.onAck(pkt)
			case netem.SynAck:
				e.onSynAck(pkt)
			}
		}
	}
	h.pool.Put(pkt)
}
