package transport

import (
	"fmt"

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

	// pool supplies every packet the host's endpoints emit and receives
	// every packet Receive has finished dispatching: the host is the
	// terminal sink of delivered packets (endpoint handlers copy what
	// they need and never retain the *Packet).
	pool *netem.PacketPool
	// flows supplies the flow objects Open takes for flows from this
	// host.
	flows *FlowPool

	// closeKey is the host's construction-order keyed identity
	// (eventsim.Sim.ReserveKeyedID), used by CloseReceiverAt to place
	// deferred teardown events at a position that is a pure function of
	// (completion time, host) — the same traffic-only ordering contract
	// netem ports use for deliveries.
	closeKey uint32
}

// NewHost creates a host with the given network injection function
// and the run's pools, both required. The host's endpoints allocate
// from pkts, and the host releases every delivered packet back to it
// after dispatching it (see netem.PacketPool for the ownership
// contract): it must be the run's single packet pool, the one the
// fabric releases drops to. Open takes the flows from this host out of
// flows, which gets each back once nothing can reach it (see FlowPool):
// it must be the run's single flow pool, and every flow's receiver must
// be closed through CloseReceiverAt once its sender is done.
func NewHost(sim *eventsim.Sim, id int, out func(*netem.Packet), pkts *netem.PacketPool, flows *FlowPool) *Host {
	return &Host{
		sim:      sim,
		id:       id,
		out:      out,
		pool:     pkts,
		flows:    flows,
		closeKey: sim.ReserveKeyedID(),
	}
}

// Open takes the two endpoints of one flow and the record they share,
// together, from src's flow pool and wires each endpoint to the other.
// The sender is idle until Start. cfg must outlive the flow: the
// endpoints share it. done (optional) fires once, when the last byte is
// acknowledged; the flow's memory, its record included, may serve
// another flow once done has returned and the receiver has closed.
func Open(cfg *Config, src, dst *Host, id netem.FlowID, size units.Bytes, done func(*Sender)) *Sender {
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow %v with non-positive size %d", id, size))
	}
	if id.Src != src.id || id.Dst != dst.id {
		panic(fmt.Sprintf("transport: flow %v opened from host %d to host %d", id, src.id, dst.id))
	}
	f := src.flows.get()
	s, r := &f.snd, &f.rcv
	stats := &f.rec
	*stats = FlowStats{ID: id, Size: size}
	*s = Sender{
		flow:     f,
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
	return s
}

func closeReceiverFire(arg any) { arg.(*Receiver).close() }

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
// The close may return the flow to its pool (see FlowPool).
func (h *Host) CloseReceiverAt(done, lag units.Time, r *Receiver) {
	if lag <= 0 {
		r.close()
		return
	}
	h.sim.AtKey(done+lag, netem.DeliveryKey(done, h.closeKey), closeReceiverFire, r)
}

// Receive hands a delivered packet to the endpoint it names, then
// releases it to the pool: delivery is the packet's terminal sink.
// There is no lookup: a packet that names no endpoint is dropped, a
// completed sender and a closed receiver ignore theirs (as a
// real host would RST-and-ignore), and so does an endpoint whose memory
// serves another flow since the packet was sent (see FlowPool); one
// whose endpoint lives on another host was misrouted by the fabric,
// which is a bug.
func (h *Host) Receive(pkt *netem.Packet) {
	if ep := pkt.To; ep != nil && port(ep) == pkt.Flow.Port {
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

// port returns the arrival index of the flow ep serves now: a packet
// whose Flow.Port differs was addressed to an earlier flow in the same
// memory, which has finished and closed.
func port(ep *netem.Endpoint) int {
	if r, ok := ep.Owner.(*Receiver); ok {
		return r.id.Port
	}
	return ep.Owner.(*Sender).id.Port
}
