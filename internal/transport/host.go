package transport

import (
	"fmt"
	"sort"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Host multiplexes flow endpoints on one simulated machine. The fabric
// delivers packets to Receive; endpoints inject packets through the
// out function the host was built with (typically fabric.Inject).
type Host struct {
	sim *eventsim.Sim
	id  int
	out func(*netem.Packet)

	senders   map[netem.FlowID]*Sender
	receivers map[netem.FlowID]*Receiver

	// pool, when set via SetPool, receives every packet Receive has
	// finished dispatching: the host is the terminal sink of delivered
	// packets (endpoint handlers copy what they need and never retain
	// the *Packet).
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
		sim:       sim,
		id:        id,
		out:       out,
		senders:   make(map[netem.FlowID]*Sender),
		receivers: make(map[netem.FlowID]*Receiver),
		closeKey:  sim.ReserveKeyedID(),
	}
}

// ID returns the host index.
func (h *Host) ID() int { return h.id }

// SetPool makes the host release every delivered packet back to pool
// after dispatching it (see netem.PacketPool for the ownership
// contract). Callers that keep delivered packets alive — test pipes
// that re-deliver them, for instance — must leave the pool unset.
func (h *Host) SetPool(pool *netem.PacketPool) { h.pool = pool }

// OpenSender registers (but does not start) a sender for the flow.
// done fires at completion, after the host has released the endpoint.
func (h *Host) OpenSender(cfg Config, id netem.FlowID, size units.Bytes, done func(*Sender)) *Sender {
	if id.Src != h.id {
		panic(fmt.Sprintf("transport: host %d opening sender for flow %v", h.id, id))
	}
	if _, dup := h.senders[id]; dup {
		panic(fmt.Sprintf("transport: duplicate sender for flow %v", id))
	}
	var s *Sender
	s = NewSender(h.sim, cfg, id, size, h.out, func(snd *Sender) {
		delete(h.senders, id)
		if done != nil {
			done(snd)
		}
	})
	h.senders[id] = s
	return s
}

// OpenReceiver registers the receiving endpoint for the flow; stats is
// the same record the sender side writes its fields into.
func (h *Host) OpenReceiver(cfg Config, id netem.FlowID, size units.Bytes, stats *FlowStats) *Receiver {
	if id.Dst != h.id {
		panic(fmt.Sprintf("transport: host %d opening receiver for flow %v", h.id, id))
	}
	if _, dup := h.receivers[id]; dup {
		panic(fmt.Sprintf("transport: duplicate receiver for flow %v", id))
	}
	r := NewReceiver(h.sim, cfg, id, size, h.out, stats)
	h.receivers[id] = r
	return r
}

// CloseReceiver drops the receiving endpoint (called by the runner once
// the flow is done, so endpoint maps do not grow with completed flows).
func (h *Host) CloseReceiver(id netem.FlowID) {
	delete(h.receivers, id)
}

// hostClose carries one deferred receiver teardown through the engine.
type hostClose struct {
	h  *Host
	id netem.FlowID
}

func hostCloseFire(arg any) {
	c := arg.(*hostClose)
	c.h.CloseReceiver(c.id)
}

// CloseReceiverAt schedules CloseReceiver as a keyed event at done+lag,
// ordered by (done, host): flow teardown modelled as a finite-latency
// notification rather than an instantaneous side effect. The key is
// built from the completion time, so a late retransmission's fate
// (consumed by a still-open receiver versus dropped by a closed one)
// is a function of the traffic alone. Two flows completing at the same
// instant toward the same host collide on the key; the closes are
// commutative map deletions, so their relative order is immaterial.
func (h *Host) CloseReceiverAt(done, lag units.Time, id netem.FlowID) {
	h.sim.AtKey(done+lag, netem.DeliveryKey(done, h.closeKey), hostCloseFire, &hostClose{h: h, id: id})
}

// EachOpenSenderSorted visits the still-open senders in FlowID order —
// completed flows left the map at their done callback, so this is the
// deterministic end-of-run sweep streaming stats fold unfinished flows
// with.
func (h *Host) EachOpenSenderSorted(fn func(*Sender)) {
	ids := make([]netem.FlowID, 0, len(h.senders))
	//simlint:allow maporder(ids are collected here and sorted below before any use)
	for id := range h.senders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Port < b.Port
	})
	for _, id := range ids {
		fn(h.senders[id])
	}
}

// Receive dispatches a delivered packet to the right endpoint, then
// releases it to the pool (when one is set): delivery is the packet's
// terminal sink. Packets for unknown flows (e.g. ACKs racing a
// completed sender) are dropped, as a real host would RST-and-ignore.
func (h *Host) Receive(pkt *netem.Packet) {
	switch pkt.Kind {
	case netem.Data:
		if r, ok := h.receivers[pkt.Flow]; ok {
			r.onData(pkt)
		}
	case netem.Syn:
		if r, ok := h.receivers[pkt.Flow]; ok {
			r.onSyn(pkt)
		}
	case netem.Ack:
		if s, ok := h.senders[pkt.Flow.Reversed()]; ok {
			s.onAck(pkt)
		}
	case netem.SynAck:
		if s, ok := h.senders[pkt.Flow.Reversed()]; ok {
			s.onSynAck(pkt)
		}
	}
	h.pool.Put(pkt)
}
