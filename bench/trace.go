package main

import (
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/topology"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// Tracing lives entirely in the harness: spans are recorded around the
// calls into each layer's public functions, through the seams a
// sim.Scenario already exposes (the Balancer factory, BuildNetwork and
// its deliver callback, FlowSourceNew). Spans aggregate in memory and
// are written out when the run ends. The end-to-end pass never installs
// a timing wrapper; the per-layer numbers come from a separate traced
// pass, and the difference between the two is the tracing overhead.

var epoch = time.Now()

// now is the harness clock: nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// Span names, one per layer boundary the harness can see.
const (
	spanLoad     = "spec.load"
	spanValidate = "spec.validate"
	spanCompile  = "spec.compile"
	spanRun      = "sim.run"
	spanReduce   = "stats.reduce"
	spanBuild    = "topology.build"
	spanPick     = "lb.pick"
	spanReceive  = "transport.receive"
	spanInject   = "netem.inject"
	spanNext     = "workload.next"
)

// pickSampleEvery is the balancer wrapper's sampling period: every
// decision is counted, one in this many is timed, so the wrapper costs
// a counter increment on the other 63.
const pickSampleEvery = 64

// maxSpanSample bounds the raw spans kept for the trace file.
const maxSpanSample = 512

// spanAgg aggregates every span of one name.
type spanAgg struct {
	Name     string `json:"name"`
	Count    int64  `json:"count"`
	TotalNs  int64  `json:"total_ns"`
	SelfNs   int64  `json:"self_ns"`
	Children int64  `json:"children"`
}

// spanRecord is one raw span of the bounded sample: its name, the span
// that caused it, and its interval on the harness clock.
type spanRecord struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type frame struct {
	agg     *spanAgg
	start   int64
	childNs int64
}

// tracer records the spans of one goroutine: the harness's outer
// spans, or the seam spans of one scenario (a scenario runs on one
// goroutine, so a tracer is never shared).
type tracer struct {
	aggs   []*spanAgg
	stack  []frame
	sample []spanRecord
}

func (t *tracer) agg(name string) *spanAgg {
	for _, a := range t.aggs {
		if a.Name == name {
			return a
		}
	}
	a := &spanAgg{Name: name}
	t.aggs = append(t.aggs, a)
	return a
}

func (t *tracer) begin(a *spanAgg) {
	t.stack = append(t.stack, frame{agg: a, start: now()})
}

// end closes the innermost open span. A span's self time is its
// duration minus the part its child spans cover.
func (t *tracer) end() {
	stop := now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := stop - f.start
	f.agg.Count++
	f.agg.TotalNs += d
	f.agg.SelfNs += d - f.childNs
	parent := ""
	if n > 0 {
		p := &t.stack[n-1]
		p.childNs += d
		p.agg.Children++
		parent = p.agg.Name
	}
	if len(t.sample) < maxSpanSample {
		t.sample = append(t.sample, spanRecord{Name: f.agg.Name, Parent: parent, StartNs: f.start, EndNs: stop})
	}
}

// add records a span measured by the caller (the set-up stages are
// timed once and reported in both passes).
func (t *tracer) add(name string, ns int64) {
	a := t.agg(name)
	a.Count++
	a.TotalNs += ns
	a.SelfNs += ns
}

// spanCost is what recording one span adds: Inner is included in the
// span's own duration (the clock reads), Outer is charged to whatever
// encloses it (the bookkeeping around them).
type spanCost struct{ Inner, Outer float64 }

// measureSpanCost times empty spans, so reported durations can have
// the recorder's own cost taken out.
func measureSpanCost() spanCost {
	const n = 20000
	t := &tracer{}
	parent, child := t.agg("parent"), t.agg("child")
	t.begin(parent)
	for i := 0; i < n; i++ {
		t.begin(child)
		t.end()
	}
	t.end()
	return spanCost{
		Inner: float64(child.TotalNs) / n,
		Outer: float64(parent.SelfNs) / n,
	}
}

// corrected returns the aggregate's total and self time with the
// recorder's cost removed.
func (a spanAgg) corrected(c spanCost) (total, self float64) {
	total = float64(a.TotalNs) - float64(a.Count)*c.Inner
	self = float64(a.SelfNs) - float64(a.Count)*c.Inner - float64(a.Children)*c.Outer
	return max(total, 0), max(self, 0)
}

// scenarioProbe is the harness's view into one scenario's run. Every
// pass captures the networks the run builds (one call per run, nothing
// per packet) so exact counters can be read afterwards; the traced pass
// additionally times the seams.
type scenarioProbe struct {
	scheme string
	nets   []topology.Network
	// marks holds the session's elapsed wall seconds at every snapshot
	// and at its end; events is its final event count.
	marks  []float64
	events uint64

	tr     *tracer // nil in the end-to-end pass
	picks  int64
	pick   *spanAgg
	recv   *spanAgg
	inject *spanAgg
	next   *spanAgg
}

// attach installs the probe on the scenario. timed selects the traced
// pass's seam wrappers; they assume the scenario runs on one goroutine,
// so sharded runs keep the outer spans only.
func (p *scenarioProbe) attach(sc *sim.Scenario, timed bool) {
	p.scheme = sc.SchemeName
	timed = timed && sc.Shards <= 1
	if timed {
		p.tr = &tracer{}
		p.pick, p.recv = p.tr.agg(spanPick), p.tr.agg(spanReceive)
		p.inject, p.next = p.tr.agg(spanInject), p.tr.agg(spanNext)
		if inner := sc.FlowSourceNew; inner != nil {
			sc.FlowSourceNew = func() workload.Source { return &tracedSource{src: inner(), p: p} }
		}
	}
	build := sc.BuildNetwork
	if build == nil {
		cfg := sc.Topology
		build = func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
			fab, err := topology.New(s, cfg, f, rng, deliver)
			if err != nil {
				return nil, err
			}
			return fab, nil
		}
	}
	// The fault injector addresses the concrete leaf-spine fabric, so a
	// faulted run cannot have its network wrapped; its receive spans
	// then include the nested injects.
	wrapNet := len(sc.Faults) == 0
	sc.BuildNetwork = func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
		if !timed {
			net, err := build(s, f, rng, deliver)
			if err == nil {
				p.nets = append(p.nets, net)
			}
			return net, err
		}
		a := p.tr.agg(spanBuild)
		p.tr.begin(a)
		net, err := build(s, p.tracedFactory(f), rng, p.tracedDeliver(deliver))
		p.tr.end()
		if err != nil {
			return nil, err
		}
		p.nets = append(p.nets, net)
		if wrapNet {
			return &tracedNet{Network: net, p: p}, nil
		}
		return net, nil
	}
}

func (p *scenarioProbe) tracedFactory(f lb.Factory) lb.Factory {
	return func(s *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		return &tracedBalancer{Balancer: f(s, rng, ports), p: p}
	}
}

func (p *scenarioProbe) tracedDeliver(deliver topology.DeliverFunc) topology.DeliverFunc {
	return func(host int, pkt *netem.Packet) {
		p.tr.begin(p.recv)
		deliver(host, pkt)
		p.tr.end()
	}
}

// tracedBalancer times one decision in pickSampleEvery in situ, inside
// the real fabric with its live queues and flow tables.
type tracedBalancer struct {
	lb.Balancer
	p *scenarioProbe
}

func (b *tracedBalancer) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	b.p.picks++
	if b.p.picks%pickSampleEvery != 0 {
		return b.Balancer.Pick(pkt, ports)
	}
	b.p.tr.begin(b.p.pick)
	i := b.Balancer.Pick(pkt, ports)
	b.p.tr.end()
	return i
}

// tracedNet times the transport's calls into the fabric. It forwards
// MinFabricDelay because the runner derives the flow-teardown lag from
// it; hiding it would change the simulated result.
type tracedNet struct {
	topology.Network
	p *scenarioProbe
}

func (n *tracedNet) Inject(host int, pkt *netem.Packet) {
	n.p.tr.begin(n.p.inject)
	n.Network.Inject(host, pkt)
	n.p.tr.end()
}

func (n *tracedNet) MinFabricDelay() units.Time {
	if md, ok := n.Network.(interface{ MinFabricDelay() units.Time }); ok {
		return md.MinFabricDelay()
	}
	return 0
}

// tracedSource times the lazy workload source.
type tracedSource struct {
	src workload.Source
	p   *scenarioProbe
}

func (s *tracedSource) Next() (workload.Flow, bool) {
	s.p.tr.begin(s.p.next)
	f, ok := s.src.Next()
	s.p.tr.end()
	return f, ok
}
