// Package transport implements the TCP/DCTCP endpoints the simulated
// flows run over: a sender with a SYN handshake, slow start, congestion
// avoidance, 3-dupACK fast retransmit/recovery, RTO, a receive-window
// cap and DCTCP's ECN-fraction window reduction; and a receiver with
// cumulative ACKs, out-of-order buffering and per-packet ECN echo.
//
// The mechanisms here are exactly the ones the paper's observations
// depend on: packet reordering manifests as duplicate ACKs and spurious
// window cuts (Fig. 3b), queue buildup as queueing delay and long-tail
// FCT (Fig. 3a/c), and the long flows' 64 KB receive-window cap is the
// W_L of the paper's Eq. 1.
package transport

import "tlb/internal/units"

// The transport of the paper's NS2 setups, which every run uses and
// TLB's queueing model reads: the one definition of each value.
const (
	// MSS is the maximum segment (payload) size.
	MSS = 1460 * units.Byte
	// HeaderBytes is added to each segment on the wire; pure ACKs and
	// handshake packets are HeaderBytes long.
	HeaderBytes = 40 * units.Byte
	// InitCwnd is the initial congestion window in segments; the paper's
	// slow-start model (Eq. 3) assumes 2.
	InitCwnd = 2
	// RcvWindow caps the usable window: Linux's default 64 KB receive
	// buffer in the paper, the W_L of its Eq. 1.
	RcvWindow = 64 * units.KiB
	// DupAckThreshold duplicate ACKs trigger fast retransmit.
	DupAckThreshold = 3
	// DCTCPGain is DCTCP's g for the alpha EWMA.
	DCTCPGain = 1.0 / 16
	// DelayedAckTimeout bounds how long a delayed ACK may be withheld (a
	// datacenter-scale setting).
	DelayedAckTimeout = 500 * units.Microsecond
	// DefaultMinRTO is the RTO floor of a Config that sets none: the
	// standard datacenter setting in the literature the paper builds on.
	DefaultMinRTO = 10 * units.Millisecond
)

// Config is what a run may choose about its transport; all of a run's
// endpoints point at one. The zero value is the paper's: DCTCP, per-
// packet ACKs, no SACK, a 10 ms RTO floor.
type Config struct {
	// MinRTO bounds the retransmission timer from below and is the
	// timeout before any RTT sample exists; zero means DefaultMinRTO.
	// The exponential backoff is capped at max(1 s, MinRTO) (RFC 6298
	// §2.5 permits a cap): without one, a streak of lost retransmissions
	// doubles the timer past the simulation horizon and a recoverable
	// flow never retries.
	MinRTO units.Time
	// NewReno replaces DCTCP's ECN-fraction-proportional window
	// reduction with TCP NewReno's: ECE halves the window at most once
	// per RTT, RFC 3168 style.
	NewReno bool
	// DelayedAck enables RFC 1122-style delayed acknowledgements: the
	// receiver ACKs every second in-order segment or after
	// DelayedAckTimeout, whichever first. Out-of-order or CE-state
	// changes still ACK immediately (RFC 5681 / DCTCP requirements).
	// Off by default: the paper's NS2 setups ACK per packet.
	DelayedAck bool
	// SACK enables selective acknowledgements: ACKs carry up to three
	// out-of-order blocks, and the sender's recovery retransmits only
	// segments not known to have arrived (instead of NewReno's one
	// hole per RTT / go-back-N on timeout). Off by default to match
	// the paper's NS2 TCP.
	SACK bool
}

// minRTO is the RTO floor in force.
func (c *Config) minRTO() units.Time {
	if c.MinRTO > 0 {
		return c.MinRTO
	}
	return DefaultMinRTO
}

// maxRTO caps the timeout backoff.
func (c *Config) maxRTO() units.Time { return max(units.Second, c.minRTO()) }
