package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/units"
)

// repReport is everything one repetition measured. A repetition runs
// in a fresh process (the harness re-executes itself), so wall time,
// CPU time and peak memory are those of one cold run, as a user of the
// simulator would pay them.
type repReport struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`

	// Timings of this process. WallS is the timed region: Session.Run /
	// RunSweep (RunS) through reading the result.
	RunS      float64 `json:"run_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Inputs and outputs. A flow not completed at maxTime, or any flow
	// of a scenario that errored, is a failed operation.
	Errors       []string `json:"errors,omitempty"`
	Flows        int64    `json:"flows"`
	FailedFlows  int64    `json:"failed_flows"`
	OfferedBytes int64    `json:"offered_bytes"`
	Digest       string   `json:"digest"`

	// Marks holds, per scenario, the session's elapsed wall seconds at
	// each snapshot and at its end. Snapshots fall on fixed simulated
	// times, so window k covers the same events in every repetition.
	Marks [][]float64 `json:"marks"`

	// Exact counters read after the run.
	Events      uint64  `json:"events"`
	Queues      int64   `json:"queues"`
	PacketHops  int64   `json:"packet_hops"`
	Injected    int64   `json:"packets_injected"`
	Delivered   int64   `json:"packets_delivered"`
	Decisions   int64   `json:"lb_decisions"`
	Drops       int64   `json:"drops"`
	FaultDrops  int64   `json:"fault_drops"`
	ECNMarks    int64   `json:"ecn_marks"`
	MaxQueueLen int     `json:"max_queue_len"`
	Retransmits int64   `json:"retransmits"`
	Timeouts    int64   `json:"timeouts"`
	DataRecv    int64   `json:"data_packets_received"`
	OutOfOrder  int64   `json:"out_of_order"`
	DupAcks     int64   `json:"dup_acks"`
	EndTimeUs   float64 `json:"end_time_us"`
	ShortAFCTUs float64 `json:"short_afct_us"`
	ShortP99Us  float64 `json:"short_p99_us"`
	AFCTRatio   float64 `json:"short_afct_ratio"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint32  `json:"gc_cycles"`

	// Traced pass only.
	Spans  []spanAgg          `json:"spans,omitempty"`
	Sample []spanRecord       `json:"span_sample,omitempty"`
	Cost   spanCost           `json:"span_cost"`
	Picks  []pickAgg          `json:"picks,omitempty"`
	Probes map[string]float64 `json:"probes,omitempty"`
}

// pickAgg is the balancer wrapper's tally for one scheme.
type pickAgg struct {
	Scheme  string `json:"scheme"`
	Picks   int64  `json:"picks"`
	Samples int64  `json:"samples"`
	TotalNs int64  `json:"total_ns"`
}

// runRep executes one repetition of the workload in this process.
func runRep(w workloadDef, seed uint64, traced bool, scale int) (*repReport, error) {
	rep := &repReport{Workload: w.Name, Seed: seed, Traced: traced}
	outer := &tracer{}

	comp, err := w.compile(seed, scale)
	if err != nil {
		return nil, err
	}

	// inputs are the scenarios as compiled; scenarios carry the probes.
	inputs := make([]sim.Scenario, len(comp))
	scenarios := make([]sim.Scenario, len(comp))
	probes := make([]*scenarioProbe, len(comp))
	flows := make([]int64, len(comp))
	for i := range comp {
		outer.add(spanLoad, comp[i].loadNs)
		outer.add(spanValidate, comp[i].validateNs)
		outer.add(spanCompile, comp[i].compileNs)
		inputs[i], scenarios[i] = comp[i].sc, comp[i].sc
		n, bytes := offered(&inputs[i])
		flows[i] = n
		rep.Flows += n
		rep.OfferedBytes += int64(bytes)
		probes[i] = &scenarioProbe{}
		probes[i].attach(&scenarios[i], traced)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	outer.begin(outer.agg(spanRun))
	results, runErr := w.execute(scenarios, probes)
	outer.end()
	ran := now()
	outer.begin(outer.agg(spanReduce))
	rep.reduce(w, results)
	outer.end()
	stop := now()
	runtime.ReadMemStats(&after)

	rep.RunS = float64(ran-start) / 1e9
	rep.WallS = float64(stop-start) / 1e9
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.GCCycles = after.NumGC - before.NumGC

	if runErr != nil {
		rep.Errors = append(rep.Errors, runErr.Error())
	}
	for i, res := range results {
		if res == nil {
			rep.FailedFlows += flows[i]
			continue
		}
		rep.FailedFlows += int64(res.Count(sim.AllFlows) - res.CompletedCount(sim.AllFlows))
	}
	for _, p := range probes {
		rep.Events += p.events
		rep.Marks = append(rep.Marks, p.marks)
		p.readCounters(rep)
	}

	if traced {
		rep.Cost = measureSpanCost()
		rep.Spans, rep.Sample = mergeSpans(outer, probes)
		rep.Picks = mergePicks(probes)
		rep.Probes = runProbes(inputs, seed)
	}
	return rep, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// execute runs the workload through the path its users take: one
// sim.Session for a single scenario, one sim.RunSweep campaign for
// several, each with the observer stream the serve layer attaches. The
// observer only notes the session's own elapsed-time reading at each
// snapshot; a snapshot costs microseconds and there are a hundred or so
// per repetition.
func (w workloadDef) execute(scenarios []sim.Scenario, probes []*scenarioProbe) ([]*sim.Result, error) {
	obs := sim.ObserverFunc(func(ev sim.ProgressEvent) {
		p := probes[ev.Index]
		p.marks = append(p.marks, ev.Elapsed.Seconds())
		p.events = ev.Events
	})
	if w.Workers == 0 {
		res, err := sim.NewSession(scenarios[0], sim.SessionOptions{
			Observer: obs, SnapshotEvery: w.Window,
		}).Run()
		return []*sim.Result{res}, err
	}
	return sim.RunSweep(scenarios, sim.SweepOptions{
		Workers: w.Workers, Observer: obs, SnapshotEvery: w.Window,
	})
}

// readCounters adds the exact per-queue counters of the scenario's
// networks to the report. A sharded run builds one replica per shard
// and each directed port carries traffic in exactly one of them, so
// summing over replicas counts every hop once.
func (p *scenarioProbe) readCounters(rep *repReport) {
	for _, net := range p.nets {
		net.EveryQueue(func(label string, q *netem.Queue) {
			st := q.Stats()
			rep.Queues++
			rep.PacketHops += st.Dequeued
			rep.ECNMarks += st.Marked
			rep.MaxQueueLen = max(rep.MaxQueueLen, st.MaxLen)
			if strings.HasPrefix(label, "host") {
				rep.Injected += st.Enqueued + st.Dropped + st.FaultDropped
			}
			if strings.Contains(label, "->host") {
				rep.Delivered += st.Dequeued
			}
		})
		for _, port := range net.BalancedPorts() {
			st := port.Queue().Stats()
			rep.Decisions += st.Enqueued + st.Dropped + st.FaultDropped
		}
	}
	// A sharded run's replicas all count the same queues.
	if n := int64(len(p.nets)); n > 1 {
		rep.Queues /= n
	}
}

// reduce reads every result through the Result accessors — the
// reduction a figure performs — into the report's digest and simulated
// statistics. The digest
// covers, per scenario: per-class count, completed, AFCT, p99 FCT,
// retransmits, timeouts, out-of-order and duplicate-ACK ratios; end
// time, drops, fault drops; and every uplink's enqueued, dropped,
// marked and busy time. Scenario names are left out so the sharded
// workload can be compared with its single-engine baseline.
func (rep *repReport) reduce(w workloadDef, results []*sim.Result) {
	var (
		b           strings.Builder
		over, under units.Time
	)
	ratio := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for i, res := range results {
		if res == nil {
			fmt.Fprintf(&b, "scenario %d failed\n", i)
			continue
		}
		fmt.Fprintf(&b, "scenario %d scheme %s end %d drops %d faultdrops %d\n",
			i, res.Scheme, int64(res.EndTime), res.Drops, res.FaultDrops)
		for _, c := range []sim.Class{sim.AllFlows, sim.ShortFlows, sim.LongFlows} {
			fmt.Fprintf(&b, "class %d count %d completed %d afct %d p99 %d retx %d rto %d ooo %s dupack %s\n",
				c, res.Count(c), res.CompletedCount(c), int64(res.AFCT(c)), int64(res.FCTPercentile(c, 99)),
				res.TotalRetransmits(c), res.TotalTimeouts(c),
				ratio(res.OutOfOrderRatio(c)), ratio(res.DupAckRatio(c)))
		}
		for _, u := range res.Uplinks {
			fmt.Fprintf(&b, "uplink %s enq %d drop %d marked %d busy %d\n",
				u.Label, u.Queue.Enqueued, u.Queue.Dropped, u.Queue.Marked, int64(u.BusyTime))
		}

		rep.Retransmits += res.TotalRetransmits(sim.AllFlows)
		rep.Timeouts += res.TotalTimeouts(sim.AllFlows)
		recv, ooo, dup := receiverCounts(res)
		rep.DataRecv += recv
		rep.OutOfOrder += ooo
		rep.DupAcks += dup
		rep.Drops += res.Drops
		rep.FaultDrops += res.FaultDrops
		rep.EndTimeUs += res.EndTime.Micros()
		// The sweep's headline scenario (the ratio's denominator) stands
		// for the campaign in the short-flow statistics.
		if len(results) == 1 || res.Scenario == w.RatioUnder {
			rep.ShortAFCTUs = res.AFCT(sim.ShortFlows).Micros()
			rep.ShortP99Us = res.FCTPercentile(sim.ShortFlows, 99).Micros()
		}
		switch res.Scenario {
		case w.RatioOver:
			over = res.AFCT(sim.ShortFlows)
		case w.RatioUnder:
			under = res.AFCT(sim.ShortFlows)
		}
	}
	if under > 0 {
		rep.AFCTRatio = float64(over) / float64(under)
	}
	sum := sha256.Sum256([]byte(b.String()))
	rep.Digest = hex.EncodeToString(sum[:])
}

// receiverCounts returns the class-wide receiver counters behind the
// out-of-order and duplicate-ACK ratios, from whichever representation
// the run kept.
func receiverCounts(res *sim.Result) (recv, ooo, dup int64) {
	if res.Stream != nil {
		a := res.Stream.Agg(sim.AllFlows)
		return a.PacketsRecv, a.OutOfOrder, a.DupAcksSent
	}
	for _, fs := range res.Flows {
		recv += fs.PacketsRecv
		ooo += fs.OutOfOrder
		dup += fs.DupAcksSent
	}
	return recv, ooo, dup
}

// mergeSpans folds the outer tracer and every scenario tracer into one
// aggregate per span name, keeping a bounded sample of raw spans.
func mergeSpans(outer *tracer, probes []*scenarioProbe) ([]spanAgg, []spanRecord) {
	merged := &tracer{}
	sample := outer.sample
	fold := func(t *tracer) {
		for _, a := range t.aggs {
			m := merged.agg(a.Name)
			m.Count += a.Count
			m.TotalNs += a.TotalNs
			m.SelfNs += a.SelfNs
			m.Children += a.Children
		}
	}
	fold(outer)
	for _, p := range probes {
		if p.tr == nil {
			continue
		}
		fold(p.tr)
		if room := maxSpanSample - len(sample); room > 0 {
			sample = append(sample, p.tr.sample[:min(room, len(p.tr.sample))]...)
		}
	}
	out := make([]spanAgg, len(merged.aggs))
	for i, a := range merged.aggs {
		out[i] = *a
	}
	return out, sample
}

// mergePicks tallies the balancer wrapper's samples per scheme, in
// first-seen scenario order.
func mergePicks(probes []*scenarioProbe) []pickAgg {
	var out []pickAgg
	for _, p := range probes {
		if p.tr == nil {
			continue
		}
		i := 0
		for i < len(out) && out[i].Scheme != p.scheme {
			i++
		}
		if i == len(out) {
			out = append(out, pickAgg{Scheme: p.scheme})
		}
		out[i].Picks += p.picks
		out[i].Samples += p.pick.Count
		out[i].TotalNs += p.pick.TotalNs
	}
	return out
}
