// Package transport implements the TCP/DCTCP endpoints the simulated
// flows run over: a sender with slow start, congestion avoidance,
// 3-dupACK fast retransmit/recovery, RTO, a receive-window cap and
// DCTCP's ECN-fraction window reduction; and a receiver with cumulative
// ACKs, out-of-order buffering and per-packet ECN echo.
//
// The mechanisms here are exactly the ones the paper's observations
// depend on: packet reordering manifests as duplicate ACKs and spurious
// window cuts (Fig. 3b), queue buildup as queueing delay and long-tail
// FCT (Fig. 3a/c), and the long flows' 64 KB receive-window cap is the
// W_L of the paper's Eq. 1.
package transport

import (
	"tlb/internal/netem"
	"tlb/internal/units"
)

// Config parameterizes both endpoints of every flow in a simulation:
// all of a run's endpoints point at one, normalised by WithDefaults.
type Config struct {
	// MSS is the maximum segment (payload) size.
	MSS units.Bytes
	// HeaderBytes is added to each segment on the wire; pure ACKs and
	// handshake packets are HeaderBytes long.
	HeaderBytes units.Bytes
	// InitCwnd is the initial congestion window in segments. The
	// paper's slow-start model (Eq. 3) assumes 2.
	InitCwnd int
	// RcvWindow caps the usable window (Linux's default 64 KB receive
	// buffer in the paper; W_L in Eq. 1).
	RcvWindow units.Bytes
	// MinRTO bounds the retransmission timer from below.
	MinRTO units.Time
	// MaxRTO bounds the exponential timeout backoff from above (RFC
	// 6298 §2.5 permits a cap). Without it, a streak of lost
	// retransmissions doubles the timer past the simulation horizon
	// and a recoverable flow never retries.
	MaxRTO units.Time
	// InitialRTO is used before any RTT sample exists.
	InitialRTO units.Time
	// DupAckThreshold triggers fast retransmit (3, per TCP).
	DupAckThreshold int
	// DCTCP enables ECN-fraction-proportional window reduction; when
	// false the sender is TCP NewReno (ECE halves the window at most
	// once per RTT, RFC 3168 style).
	DCTCP bool
	// DCTCPGain is DCTCP's g for the alpha EWMA (1/16 by default).
	DCTCPGain float64
	// Handshake, when true, prefixes every flow with a SYN/SYN-ACK
	// exchange — the messages the paper's switch counts flows with.
	Handshake bool

	// DelayedAck enables RFC 1122-style delayed acknowledgements: the
	// receiver ACKs every second in-order segment or after
	// DelayedAckTimeout, whichever first. Out-of-order or CE-state
	// changes still ACK immediately (RFC 5681 / DCTCP requirements).
	// Off by default: the paper's NS2 setups ACK per packet.
	DelayedAck bool
	// DelayedAckTimeout bounds how long an ACK may be withheld
	// (default 500 µs, a datacenter-scale setting).
	DelayedAckTimeout units.Time
	// SACK enables selective acknowledgements: ACKs carry up to three
	// out-of-order blocks, and the sender's recovery retransmits only
	// segments not known to have arrived (instead of NewReno's one
	// hole per RTT / go-back-N on timeout). Off by default to match
	// the paper's NS2 TCP.
	SACK bool

	// Pool, when non-nil, supplies the Packet structs every endpoint
	// emits, so steady-state sending allocates nothing. It must be the
	// run's single per-simulation pool (sim.Run installs one and also
	// hands it to the fabric and hosts, which own the release points —
	// see netem.PacketPool for the ownership contract). Nil falls back
	// to plain allocation, which standalone endpoints and tests use.
	Pool *netem.PacketPool
}

// DefaultConfig mirrors the paper's NS2 setup: DCTCP, MSS 1460,
// initial window 2, 64 KB receive window, RTO_min 10 ms (the standard
// datacenter setting in the literature the paper builds on).
func DefaultConfig() Config {
	return Config{HeaderBytes: 40, DCTCP: true, Handshake: true}.WithDefaults()
}

// WithDefaults returns the config a run actually uses: every unset
// (zero or negative) field replaced by the default. It is what Open
// requires and what a scheme is told, so the transport a scheme models
// is the one that runs.
func (d Config) WithDefaults() Config {
	if d.MSS <= 0 {
		d.MSS = 1460
	}
	if d.HeaderBytes < 0 {
		d.HeaderBytes = 0
	}
	if d.InitCwnd <= 0 {
		d.InitCwnd = 2
	}
	if d.RcvWindow <= 0 {
		d.RcvWindow = 64 * units.KiB
	}
	if d.MinRTO <= 0 {
		d.MinRTO = 10 * units.Millisecond
	}
	if d.InitialRTO <= 0 {
		d.InitialRTO = d.MinRTO
	}
	if d.MaxRTO <= 0 {
		d.MaxRTO = units.Second
	}
	if d.MaxRTO < d.MinRTO {
		d.MaxRTO = d.MinRTO
	}
	if d.DupAckThreshold <= 0 {
		d.DupAckThreshold = 3
	}
	if d.DCTCPGain <= 0 {
		d.DCTCPGain = 1.0 / 16
	}
	if d.DelayedAckTimeout <= 0 {
		d.DelayedAckTimeout = 500 * units.Microsecond
	}
	return d
}
