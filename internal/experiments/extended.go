package experiments

import (
	"tlb/internal/netem"
	"tlb/internal/spec"
	"tlb/internal/units"
)

// ExtendedBaselines goes beyond the paper's four comparisons: it pits
// TLB against the broader related-work field of §8 — DRILL (per-packet
// power-of-two-choices), a congestion-aware flowlet scheme (CONGA with
// local signals), Hermes-style cautious rerouting, FlowBender-style
// congestion-triggered re-hashing and WCMP — on the web-search sweep.
// The paper discusses these systems but does not measure them; this
// experiment fills that gap on the same substrate.
func ExtendedBaselines(o Options) ([]Figure, error) {
	return largeSweep(o, websearchSizes(), o.FlowsPerRun, extendedSchemeSet(), "extended", "web search, extended field")
}

// extendedSchemeSet builds the wider comparison set.
// Every entry is registry data; the registry's defaults are the same
// explicit values this set used to construct (DRILL d=2 m=1, CONGA's
// own flowlet gap, Hermes and FlowBender defaults with the
// environment's ECN threshold).
func extendedSchemeSet() []Scheme {
	return []Scheme{
		{Name: "ecmp"},
		{Name: "drill"},
		{Name: "conga"},
		{Name: "hermes"},
		{Name: "flowbender"},
		{Name: "wcmp"},
		{Name: "letflow", Params: spec.Params{"gap": pDur(150 * units.Microsecond)}},
		{Name: "ecmp", Label: "repflow", Replicate: true},
		largeTLB(nil),
	}
}

// ExtendedAsymmetric runs the wider field on the bandwidth-asymmetric
// testbed (the Fig. 17 setting, where WCMP's static weighting and the
// delay-aware schemes differentiate most).
func ExtendedAsymmetric(o Options) ([]Figure, error) {
	afct := Figure{ID: "extended-asym-afct", Title: "Short AFCT, 2 of 10 links at 5 Mbps",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "extended-asym-tput", Title: "Long goodput, 2 of 10 links at 5 Mbps",
		YLabel: "Gbps per flow"}

	e := asymTestbed(func(l *netem.LinkConfig) { l.Bandwidth = 5 * units.Mbps })
	e.maxTime = 300 * units.Second
	schemes := []Scheme{
		{Name: "ecmp"},
		{Name: "wcmp"},
		{Name: "drill"},
		{Name: "conga"},
		{Name: "hermes"},
		{Name: "flowbender"},
		{Name: "letflow", Params: spec.Params{"gap": pDur(testbedFlowletGap)}},
		testbedTLB(),
	}
	labels := make([]string, len(schemes))
	specs := make([]spec.Spec, len(schemes))
	for i, s := range schemes {
		labels[i], specs[i] = s.label(), e.spec(s, "extended-asym-"+s.label(), o.Seed)
	}
	return o.afctTputBars("extended-asym", afct, tput, labels, specs)
}
