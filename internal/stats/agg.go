package stats

import "slices"

// ExactFCTCap is how many completed flows a class keeps the FCTs of, so
// that FCTs answers exactly up to it; past it the sketch answers. It is
// set by input size: the figures' default 800 flows per run stay exact,
// and a run of thousands of flows keeps O(1) memory per flow.
const ExactFCTCap = 1024

// FlowAgg is a fixed-size accumulator for one class of flows. Every
// figure-level metric the sim.Result accessors report is read from
// these fields — mean FCT via Online, FCT percentiles and CDF via FCTs,
// and the rest from plain counters. Memory is O(1) per flow observed.
//
// Time-valued sums (FCT seconds aside) stay in the caller's native
// integer tick domain so the counters equal a direct sum over the
// per-flow records exactly, not just approximately.
type FlowAgg struct {
	// Count is every flow observed; Completed those that finished.
	Count     int64
	Completed int64

	// FCT aggregates completion times in seconds, completed flows only.
	FCT Online
	// Sketch estimates FCT percentiles, completed flows only. Lazily
	// created on first AddFCT so a zero FlowAgg is usable.
	Sketch *QuantileSketch
	// exact holds the completed FCTs while there are at most
	// ExactFCTCap of them, and nothing after.
	exact Sample

	// DeadlineTotal counts flows that carried a deadline;
	// DeadlineMissed those that finished late or were unfinished past
	// it at run end.
	DeadlineTotal  int64
	DeadlineMissed int64

	// GoodputSum accumulates per-flow goodput (bits/second over the
	// flow's active time) for GoodputN flows with positive duration and
	// acked bytes: sim.Result.Goodput's per-flow average.
	GoodputSum float64
	GoodputN   int64

	// BytesAcked sums cumulatively acknowledged payload bytes.
	BytesAcked int64

	// Sender/receiver counters, summed over the class.
	Retransmits int64
	Timeouts    int64
	PacketsRecv int64
	OutOfOrder  int64
	DupAcksSent int64

	// SumQueueDelay is total queueing delay in native time ticks;
	// DelaySamples the packet count it averages over.
	SumQueueDelay int64
	DelaySamples  int64
}

// AddFCT records one completed flow's completion time in seconds,
// creating the sketch on first use.
func (a *FlowAgg) AddFCT(seconds float64) {
	if a.Sketch == nil {
		a.Sketch = NewQuantileSketch()
	}
	a.FCT.Add(seconds)
	a.Sketch.Add(seconds)
	switch n := a.FCT.N(); {
	case n <= ExactFCTCap:
		a.exact.Add(seconds)
	case n == ExactFCTCap+1:
		a.exact = Sample{}
	}
}

// FCTs returns what the class's FCT percentiles and CDF (seconds) are
// read from: a Sample of the completed FCTs while at most ExactFCTCap
// flows completed, the sketch past it. It leaves a unchanged (a Sample
// sorts as it is read), so readers of a finished run need no lock.
func (a *FlowAgg) FCTs() interface {
	Percentile(p float64) float64
	CDF(points int) []Point
} {
	if a.FCT.N() <= ExactFCTCap {
		s := a.exact
		s.xs = slices.Clone(s.xs)
		return &s
	}
	return a.Sketch
}

// MissRatio returns DeadlineMissed/DeadlineTotal (0 when no flow
// carried a deadline).
func (a *FlowAgg) MissRatio() float64 {
	if a.DeadlineTotal == 0 {
		return 0
	}
	return float64(a.DeadlineMissed) / float64(a.DeadlineTotal)
}

// MeanGoodput returns the per-flow goodput average in bits/second.
func (a *FlowAgg) MeanGoodput() float64 {
	if a.GoodputN == 0 {
		return 0
	}
	return a.GoodputSum / float64(a.GoodputN)
}
