package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names and
// units (bench_test.go checks both directions), and later issues refer
// to them.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced repetitions only. Wall and CPU time are quiet-host
// estimates (see windowedScale), divided by the payload the seed's
// workload offers, because the heavy-tailed web-search sizes make the
// work of a fixed flow count swing by several percent from seed to
// seed; the raw seconds are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s_per_gb", "s/GB"},
	{"cpu_s_per_gb", "s/GB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, named after the module
// they measure. Timings come from the traced pass, rates and counts
// from the untraced repetitions of the same run. A metric that does
// not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"failed_share", "ratio"},
	{"short_afct_ecmp_over_tlb", "ratio"},

	{"spec.compile_ms", "ms"},
	{"workload.flows", "count"},
	{"workload.bytes_offered", "B"},
	{"workload.next_ns", "ns"},
	{"topology.build_ms", "ms"},
	{"topology.queues", "count"},
	{"topology.hops_per_packet", "count"},

	{"lb.decisions", "count"},
	{"lb.pick_ns", "ns"},
	{"lb.pick_share_pct", "%"},
	{"lb.pick_ns.ecmp", "ns"},
	{"lb.pick_ns.rps", "ns"},
	{"lb.pick_ns.presto", "ns"},
	{"lb.pick_ns.letflow", "ns"},
	{"lb.pick_ns.tlb", "ns"},

	{"netem.packet_hops", "count"},
	{"netem.drops", "count"},
	{"netem.ecn_marks", "count"},
	{"netem.max_queue_len", "count"},
	{"netem.ns_per_packet_hop", "ns"},
	{"netem.port_transit_ns", "ns"},

	{"eventsim.events", "count"},
	{"eventsim.events_per_sec", "1/s"},
	{"eventsim.events_per_packet_hop", "count"},
	{"eventsim.schedule_fire_ns", "ns"},

	{"transport.packets_delivered", "count"},
	{"transport.receive_self_ns", "ns"},
	{"transport.receive_share_pct", "%"},
	{"transport.retransmits", "count"},
	{"transport.timeouts", "count"},
	{"transport.ooo_ratio", "ratio"},
	{"transport.dup_ack_ratio", "ratio"},

	{"stats.reduce_ms", "ms"},
	{"stats.fold_ns_per_flow", "ns"},

	{"sim.run_s", "s"},
	{"sim.flows_per_sec", "1/s"},
	{"sim.allocs_per_flow", "count"},
	{"sim.gc_cycles", "count"},
	{"sim.sweep_efficiency", "ratio"},
	{"sim.shard_speedup", "ratio"},
	{"sim.shard_cpu_ratio", "ratio"},
	{"sim.shard_event_overhead", "%"},
	{"sim.end_time_us", "us"},
	{"sim.short_afct_us", "us"},
	{"sim.short_p99_us", "us"},
	{"sim.digest_changed", "count"},
	{"faults.fault_drops", "count"},

	{"bench.trace_overhead_pct", "%"},
}

// workloadRuns collects everything one invocation measured for one
// workload.
type workloadRuns struct {
	def  workloadDef
	seed uint64
	// setup holds the set-up cycle timings in seconds (end-to-end pass).
	setup []float64
	// untraced and traced are the repetitions of each pass; baseline
	// the untraced repetitions of def.Baseline.
	untraced, traced, baseline []*repReport
	// twin is the workload that must reproduce this one (Baseline names
	// this one), when it ran alongside a single-workload invocation: its
	// output check and sharding ratios are reported under this workload.
	twin *workloadRuns
}

// reps returns the workload's own repetitions of both passes.
func (r *workloadRuns) reps() []*repReport {
	return append(slices.Clone(r.untraced), r.traced...)
}

// quartiles returns the quartile cut points Python's
// statistics.quantiles(values, n=4) gives — the spread rule the
// benchmark's bounds are judged by. Fewer than two values yield the
// value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

func each(reps []*repReport, f func(*repReport) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func (r *repReport) offeredGB() float64 { return float64(r.OfferedBytes) / 1e9 }

// sessionSeconds sums the scenarios' session times.
func (r *repReport) sessionSeconds() float64 {
	var sum float64
	for _, m := range r.Marks {
		if len(m) > 0 {
			sum += m[len(m)-1]
		}
	}
	return sum
}

// sameWindows reports whether two repetitions split into the same
// windows.
func sameWindows(a, b *repReport) bool {
	if len(a.Marks) != len(b.Marks) {
		return false
	}
	for i := range a.Marks {
		if len(a.Marks[i]) != len(b.Marks[i]) {
			return false
		}
	}
	return true
}

// windowedScale is the harness's defence against a noisy host. The
// repetitions of one seed execute the identical event sequence, and the
// snapshot windows cut it at the same simulated times, so window k is
// the same work in every repetition. Interference from other tenants
// only ever slows a window down and comes in bursts shorter than a
// repetition, so the fastest repetition of each window is the best
// estimate of what that work costs on a quiet host. The quiet-host time
// of the whole run is the sum of those minima; the function returns it
// as a share of each repetition's own session time, the factor the
// repetition's wall and CPU seconds are scaled by. Every part of the
// run is counted, each at its least disturbed.
func windowedScale(reps []*repReport) []float64 {
	scale := make([]float64, len(reps))
	for i := range scale {
		scale[i] = 1
	}
	for _, rep := range reps {
		if !sameWindows(reps[0], rep) {
			return scale // check() fails such a run
		}
	}
	if len(reps) < 2 {
		return scale
	}
	own := make([]float64, len(reps))
	var quiet float64
	for i, marks := range reps[0].Marks {
		for k := range marks {
			best := math.Inf(1)
			for r, rep := range reps {
				d := rep.Marks[i][k]
				if k > 0 {
					d -= rep.Marks[i][k-1]
				}
				own[r] += d
				best = min(best, d)
			}
			quiet += best
		}
	}
	for r := range scale {
		scale[r] = ratio(quiet, own[r])
	}
	return scale
}

// measured is one end-to-end metric of one workload: the reported
// value, and the raw observations behind it, whose spread says how far
// the value can be trusted.
type measured struct {
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples"`
}

// endToEndValues returns the end-to-end metrics. Every gated timing is
// a quiet-host estimate, because on a shared host interference only
// ever adds time: set-up repeats identical work, so its value is the
// fastest sample; wall and CPU time are the median of the repetitions'
// windowed estimates (windowedScale), with the repetitions' unscaled
// seconds per GB as samples. Peak RSS is the median of its samples.
func (r *workloadRuns) endToEndValues() map[string]measured {
	scale := windowedScale(r.untraced)
	perGB := func(seconds func(*repReport) float64) measured {
		raw := make([]float64, len(r.untraced))
		quiet := make([]float64, len(r.untraced))
		for i, x := range r.untraced {
			raw[i] = seconds(x) / x.offeredGB()
			quiet[i] = raw[i] * scale[i]
		}
		return measured{median(quiet), raw}
	}
	rss := each(r.untraced, func(x *repReport) float64 { return x.PeakRSSMB })
	return map[string]measured{
		"setup_s":       {slices.Min(r.setup), r.setup},
		"wall_s_per_gb": perGB(func(x *repReport) float64 { return x.WallS }),
		"cpu_s_per_gb":  perGB(func(x *repReport) float64 { return x.CPUS }),
		"peak_rss_mb":   {median(rss), rss},
	}
}

// span returns the named aggregate of a traced repetition, or a zero
// aggregate.
func (r *repReport) span(name string) spanAgg {
	for _, a := range r.Spans {
		if a.Name == name {
			return a
		}
	}
	return spanAgg{Name: name}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues derives every per-layer metric. goldenDigest is the
// digest pinned for the default seed ("" when none applies).
func (r *workloadRuns) perLayerValues(goldenDigest string) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	// Counts repeat exactly from repetition to repetition (the check
	// fails the run when they do not), so the first report carries them.
	all := r.reps()
	if len(all) == 0 {
		return m
	}
	c := all[0]
	flows := float64(c.Flows)
	hops := float64(c.PacketHops)
	m["workload.flows"] = flows
	m["workload.bytes_offered"] = float64(c.OfferedBytes)
	m["topology.queues"] = float64(c.Queues)
	m["topology.hops_per_packet"] = ratio(hops, float64(c.Injected))
	m["lb.decisions"] = float64(c.Decisions)
	m["netem.packet_hops"] = hops
	m["netem.drops"] = float64(c.Drops)
	m["netem.ecn_marks"] = float64(c.ECNMarks)
	m["netem.max_queue_len"] = float64(c.MaxQueueLen)
	m["eventsim.events"] = float64(c.Events)
	m["eventsim.events_per_packet_hop"] = ratio(float64(c.Events), hops)
	m["transport.packets_delivered"] = float64(c.Delivered)
	m["transport.retransmits"] = float64(c.Retransmits)
	m["transport.timeouts"] = float64(c.Timeouts)
	m["transport.ooo_ratio"] = ratio(float64(c.OutOfOrder), float64(c.DataRecv))
	m["transport.dup_ack_ratio"] = ratio(float64(c.DupAcks), float64(c.DataRecv))
	m["sim.end_time_us"] = c.EndTimeUs
	m["sim.short_afct_us"] = c.ShortAFCTUs
	m["sim.short_p99_us"] = c.ShortP99Us
	m["short_afct_ecmp_over_tlb"] = c.AFCTRatio
	m["faults.fault_drops"] = float64(c.FaultDrops)
	if goldenDigest != "" && c.Digest != goldenDigest {
		m["sim.digest_changed"] = 1
	}
	attempted, failed, _ := r.check()
	m["failed_share"] = ratio(float64(failed), float64(attempted))

	// Rates and process costs, from the untraced repetitions.
	u := r.untraced
	wall := median(each(u, func(x *repReport) float64 { return x.WallS }))
	// Layer shares are taken of the sessions' summed time, which is the
	// wall time of a single run and the busy time of a sweep's workers.
	sessions := median(each(u, (*repReport).sessionSeconds))
	if len(u) > 0 {
		runS := median(each(u, func(x *repReport) float64 { return x.RunS }))
		m["wall_s"] = wall
		m["cpu_s"] = median(each(u, func(x *repReport) float64 { return x.CPUS }))
		m["sim.run_s"] = runS
		m["sim.flows_per_sec"] = ratio(flows, runS)
		m["eventsim.events_per_sec"] = ratio(float64(c.Events), runS)
		m["netem.ns_per_packet_hop"] = ratio(wall*1e9, hops)
		m["stats.reduce_ms"] = median(each(u, func(x *repReport) float64 { return (x.WallS - x.RunS) * 1e3 }))
		m["sim.allocs_per_flow"] = median(each(u, func(x *repReport) float64 { return ratio(float64(x.Mallocs), flows) }))
		m["sim.gc_cycles"] = median(each(u, func(x *repReport) float64 { return float64(x.GCCycles) }))
		if r.def.Workers > 0 {
			m["sim.sweep_efficiency"] = median(each(u, func(x *repReport) float64 {
				return ratio(x.sessionSeconds(), float64(r.def.Workers)*x.RunS)
			}))
		}
	}
	r.shardValues(m)
	if r.twin != nil {
		r.twin.shardValues(m)
	}

	// Layer timings, from the traced repetitions.
	t := r.traced
	if len(t) == 0 {
		return m
	}
	spanMs := func(name string) float64 {
		return median(each(t, func(x *repReport) float64 {
			total, _ := x.span(name).corrected(x.Cost)
			return total / 1e6
		}))
	}
	m["spec.compile_ms"] = spanMs(spanCompile)
	m["topology.build_ms"] = spanMs(spanBuild)
	// A lazy source is timed call by call; an eager workload's flows are
	// generated inside spec.Compile, which Validate skips.
	m["workload.next_ns"] = median(each(t, func(x *repReport) float64 {
		if next := x.span(spanNext); next.Count > 0 {
			total, _ := next.corrected(x.Cost)
			return total / float64(next.Count)
		}
		return max(ratio(float64(x.span(spanCompile).TotalNs-x.span(spanValidate).TotalNs), flows), 0)
	}))
	pickNs := func(x *repReport, scheme string) float64 {
		var samples, ns float64
		for _, p := range x.Picks {
			if scheme == "" || p.Scheme == scheme {
				samples += float64(p.Samples)
				ns += float64(p.TotalNs) - float64(p.Samples)*x.Cost.Inner
			}
		}
		return max(ratio(ns, samples), 0)
	}
	m["lb.pick_ns"] = median(each(t, func(x *repReport) float64 { return pickNs(x, "") }))
	m["lb.pick_share_pct"] = ratio(m["lb.pick_ns"]*float64(c.Decisions), sessions*1e9) * 100
	for _, d := range perLayer {
		if scheme, ok := strings.CutPrefix(d.Name, "lb.pick_ns."); ok {
			m[d.Name] = median(each(t, func(x *repReport) float64 { return pickNs(x, scheme) }))
		}
	}
	recvSelf := median(each(t, func(x *repReport) float64 {
		_, self := x.span(spanReceive).corrected(x.Cost)
		return self
	}))
	m["transport.receive_self_ns"] = ratio(recvSelf, float64(t[0].span(spanReceive).Count))
	m["transport.receive_share_pct"] = ratio(recvSelf, sessions*1e9) * 100
	for name := range t[0].Probes {
		m[name] = median(each(t, func(x *repReport) float64 { return x.Probes[name] }))
	}
	if wall > 0 {
		m["bench.trace_overhead_pct"] = (ratio(median(each(t, func(x *repReport) float64 { return x.WallS })), wall) - 1) * 100
	}
	return m
}

// shardValues writes the sharding ratios of a workload that has a
// baseline: baseline ÷ own wall time, own ÷ baseline CPU time and
// events, all from the untraced repetitions of one invocation.
func (r *workloadRuns) shardValues(m map[string]float64) {
	u, b := r.untraced, r.baseline
	if len(u) == 0 || len(b) == 0 {
		return
	}
	wall := func(x *repReport) float64 { return x.WallS }
	cpu := func(x *repReport) float64 { return x.CPUS }
	m["sim.shard_speedup"] = ratio(median(each(b, wall)), median(each(u, wall)))
	m["sim.shard_cpu_ratio"] = ratio(median(each(u, cpu)), median(each(b, cpu)))
	m["sim.shard_event_overhead"] = (ratio(float64(u[0].Events), float64(b[0].Events)) - 1) * 100
}

// check applies the benchmark's output rules. An operation is one
// offered flow. A flow fails when it did not complete by maxTime or its
// scenario errored; every flow of a repetition fails when the
// repetition's digest differs from its siblings' (traced repetitions
// are siblings too: tracing must not change the result) or from the
// baseline workload's. A twin that ran alongside counts as further
// repetitions.
func (r *workloadRuns) check() (attempted, failed int64, notes []string) {
	all := r.reps()
	want := ""
	if len(r.baseline) > 0 {
		want = r.baseline[0].Digest
	} else if len(all) > 0 {
		want = all[0].Digest
	}
	for i, rep := range all {
		attempted += rep.Flows
		switch {
		case rep.Digest != want:
			failed += rep.Flows
			notes = append(notes, fmt.Sprintf("repetition %d (traced=%v): digest %.12s differs from %.12s", i, rep.Traced, rep.Digest, want))
		case !sameWindows(all[0], rep):
			failed += rep.Flows
			notes = append(notes, fmt.Sprintf("repetition %d (traced=%v): snapshot windows differ from its siblings'", i, rep.Traced))
		default:
			failed += rep.FailedFlows
		}
		for _, e := range rep.Errors {
			notes = append(notes, fmt.Sprintf("repetition %d: %s", i, e))
		}
	}
	if r.twin != nil {
		a, f, n := r.twin.check()
		attempted += a
		failed += f
		for _, note := range n {
			notes = append(notes, r.twin.def.Name+": "+note)
		}
	}
	return attempted, failed, notes
}
