package experiments

// Translators from the simulator's in-memory configuration structs to
// the declarative spec layer. Every figure runner builds spec.Spec
// values through these helpers and executes them via Options.runSpecs,
// so each scenario an experiment runs is serializable (-dump-specs)
// and reproducible from JSON alone (tlbsim -spec).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tlb/internal/core"
	"tlb/internal/faults"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// pDur renders a duration as a scheme-parameter value.
func pDur(t units.Time) string { return string(spec.Dur(t)) }

// linkSpec renders one link's parameters.
func linkSpec(l netem.LinkConfig) spec.Link {
	return spec.Link{Bandwidth: spec.Bw(l.Bandwidth), Delay: spec.Dur(l.Delay)}
}

// topoSpec renders a leaf-spine topology.
func topoSpec(t topology.Config) spec.Topology {
	ts := spec.Topology{
		Leaves:       t.Leaves,
		Spines:       t.Spines,
		HostsPerLeaf: t.HostsPerLeaf,
		HostLink:     linkSpec(t.HostLink),
		FabricLink:   linkSpec(t.FabricLink),
		Queue:        spec.Queue{Capacity: t.Queue.Capacity, ECNThreshold: t.Queue.ECNThreshold},
	}
	for _, o := range t.Overrides {
		ts.Overrides = append(ts.Overrides, spec.Override{
			Leaf: o.Leaf, Spine: o.Spine, Link: linkSpec(o.Link),
		})
	}
	return ts
}

// fatTreeSpec renders a fat-tree topology.
func fatTreeSpec(t topology.FatTreeConfig) spec.Topology {
	return spec.Topology{
		Kind:       "fattree",
		K:          t.K,
		HostLink:   linkSpec(t.HostLink),
		FabricLink: linkSpec(t.FabricLink),
		Queue:      spec.Queue{Capacity: t.Queue.Capacity, ECNThreshold: t.Queue.ECNThreshold},
	}
}

// transportSpec diffs a transport configuration against the defaults
// and renders only the overridden fields; nil means "all defaults".
func transportSpec(cfg transport.Config) *spec.Transport {
	def := transport.DefaultConfig()
	var t spec.Transport
	set := false
	if cfg.MSS != def.MSS {
		v := spec.Sz(cfg.MSS)
		t.MSS, set = &v, true
	}
	if cfg.HeaderBytes != def.HeaderBytes {
		v := spec.Sz(cfg.HeaderBytes)
		t.HeaderBytes, set = &v, true
	}
	if cfg.InitCwnd != def.InitCwnd {
		v := cfg.InitCwnd
		t.InitCwnd, set = &v, true
	}
	if cfg.RcvWindow != def.RcvWindow {
		v := spec.Sz(cfg.RcvWindow)
		t.RcvWindow, set = &v, true
	}
	if cfg.MinRTO != def.MinRTO {
		v := spec.Dur(cfg.MinRTO)
		t.MinRTO, set = &v, true
	}
	if cfg.MaxRTO != def.MaxRTO {
		v := spec.Dur(cfg.MaxRTO)
		t.MaxRTO, set = &v, true
	}
	if cfg.InitialRTO != def.InitialRTO {
		v := spec.Dur(cfg.InitialRTO)
		t.InitialRTO, set = &v, true
	}
	if cfg.DupAckThreshold != def.DupAckThreshold {
		v := cfg.DupAckThreshold
		t.DupAckThreshold, set = &v, true
	}
	if cfg.DCTCP != def.DCTCP {
		v := cfg.DCTCP
		t.DCTCP, set = &v, true
	}
	if cfg.DCTCPGain != def.DCTCPGain {
		v := cfg.DCTCPGain
		t.DCTCPGain, set = &v, true
	}
	if cfg.Handshake != def.Handshake {
		v := cfg.Handshake
		t.Handshake, set = &v, true
	}
	if cfg.DelayedAck != def.DelayedAck {
		v := cfg.DelayedAck
		t.DelayedAck, set = &v, true
	}
	if cfg.DelayedAckTimeout != def.DelayedAckTimeout {
		v := spec.Dur(cfg.DelayedAckTimeout)
		t.DelayedAckTimeout, set = &v, true
	}
	if cfg.SACK != def.SACK {
		v := cfg.SACK
		t.SACK, set = &v, true
	}
	if !set {
		return nil
	}
	return &t
}

// sizeSpec renders the closed-form distributions the environments use.
// The CDF-backed workloads (web search, data mining) are spec values
// already and never pass through here.
func sizeSpec(d workload.SizeDist) *spec.SizeDist {
	switch v := d.(type) {
	case workload.Uniform:
		return &spec.SizeDist{Kind: "uniform", Min: spec.Sz(v.MinSize), Max: spec.Sz(v.MaxSize)}
	case workload.Fixed:
		return &spec.SizeDist{Kind: "fixed", Size: spec.Sz(v.Size)}
	case workload.Truncated:
		s := sizeSpec(v.Dist)
		s.Truncate = spec.Sz(v.Max)
		return s
	}
	panic(fmt.Sprintf("sizeSpec: no spec rendering for %T", d))
}

// szOpt renders a size that may be unset.
func szOpt(b units.Bytes) spec.Size {
	if b <= 0 {
		return ""
	}
	return spec.Sz(b)
}

// deadlineSpec renders a deadline distribution; nil means "none".
func deadlineSpec(d workload.DeadlineDist) *spec.Deadlines {
	if d.Max <= 0 {
		return nil
	}
	return &spec.Deadlines{Min: spec.Dur(d.Min), Max: spec.Dur(d.Max), OnlyBelow: szOpt(d.OnlyBelow)}
}

// faultSpecs renders a fault schedule.
func faultSpecs(sched faults.Schedule) []spec.Fault {
	out := make([]spec.Fault, 0, len(sched))
	for _, e := range sched {
		f := spec.Fault{
			At:    spec.Dur(e.At),
			Leaf:  e.Leaf,
			Spine: e.Spine,
			Op:    spec.FaultOpName(e.Op),
			Dir:   spec.FaultDirName(e.Dir),
		}
		if e.Bandwidth != 0 {
			f.Bandwidth = spec.Bw(e.Bandwidth)
		}
		if e.Delay != 0 {
			f.Delay = spec.Dur(e.Delay)
		}
		out = append(out, f)
	}
	return out
}

// tlbParams diffs a TLB configuration against the registry's
// environment-derived base (core.EnvConfig) and renders the overridden
// fields as scheme parameters; nil means the base is used as-is. This
// keeps the experiments building core.Config values natively (the
// ablations mutate them freely) while every run's parameters remain
// serializable.
func tlbParams(cfg core.Config, env lb.Env) spec.Params {
	base := core.EnvConfig(env)
	p := spec.Params{}
	if cfg.ShortThreshold != base.ShortThreshold {
		p["shortThreshold"] = string(spec.Sz(cfg.ShortThreshold))
	}
	if cfg.Interval != base.Interval {
		p["interval"] = string(spec.Dur(cfg.Interval))
	}
	if cfg.Deadline != base.Deadline {
		p["deadline"] = string(spec.Dur(cfg.Deadline))
	}
	if cfg.MeanShortSize != base.MeanShortSize {
		p["meanShortSize"] = string(spec.Sz(cfg.MeanShortSize))
	}
	if cfg.EstimateShortSize != base.EstimateShortSize {
		p["estimateShortSize"] = cfg.EstimateShortSize
	}
	if cfg.LongWindow != base.LongWindow {
		p["longWindow"] = string(spec.Sz(cfg.LongWindow))
	}
	if cfg.RTT != base.RTT {
		p["rtt"] = string(spec.Dur(cfg.RTT))
	}
	if cfg.LinkBandwidth != base.LinkBandwidth {
		p["linkBandwidth"] = string(spec.Bw(cfg.LinkBandwidth))
	}
	if cfg.MSS != base.MSS {
		p["mss"] = string(spec.Sz(cfg.MSS))
	}
	if cfg.MaxQTh != base.MaxQTh {
		p["maxQTh"] = cfg.MaxQTh
	}
	if cfg.FixedQTh != base.FixedQTh {
		p["fixedQTh"] = cfg.FixedQTh
	}
	if cfg.ShortFlowPolicy != base.ShortFlowPolicy {
		p["shortPolicy"] = core.ShortPolicyName(cfg.ShortFlowPolicy)
	}
	if cfg.ShortHysteresis != base.ShortHysteresis {
		p["shortHysteresis"] = cfg.ShortHysteresis
	}
	if cfg.UncappedLongDemand != base.UncappedLongDemand {
		p["uncappedLongDemand"] = cfg.UncappedLongDemand
	}
	if cfg.RerouteLeastLong != base.RerouteLeastLong {
		p["rerouteLeastLong"] = cfg.RerouteLeastLong
	}
	if cfg.DisableSafeSwitch != base.DisableSafeSwitch {
		p["disableSafeSwitch"] = cfg.DisableSafeSwitch
	}
	if cfg.EscapeFactor != base.EscapeFactor {
		p["escapeFactor"] = cfg.EscapeFactor
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

// runSpecs compiles one experiment's spec batch and submits it to the
// shared concurrent runner. Options.DumpSpecs writes each spec as JSON
// before running; the unexported specObserver hook lets tests see the
// exact specs a figure builds.
func (o Options) runSpecs(prefix string, specs []spec.Spec) ([]*sim.Result, error) {
	scs := make([]sim.Scenario, len(specs))
	for i := range specs {
		if o.specObserver != nil {
			o.specObserver(prefix, &specs[i])
		}
		sc, err := specs[i].Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		scs[i] = sc
	}
	if o.DumpSpecs != "" {
		if err := dumpSpecs(o.DumpSpecs, prefix, specs); err != nil {
			return nil, fmt.Errorf("%s: dump specs: %w", prefix, err)
		}
	}
	return o.runBatch(prefix, scs)
}

// dumpSpecs writes one batch's specs as <prefix>-<index>-<name>.json.
func dumpSpecs(dir, prefix string, specs []spec.Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range specs {
		name := fmt.Sprintf("%s-%03d-%s.json", sanitizeFileName(prefix), i, sanitizeFileName(specs[i].Name))
		if err := specs[i].Save(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeFileName maps scenario names (which may contain "/" and
// other separators) onto portable file names.
func sanitizeFileName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}
