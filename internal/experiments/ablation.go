package experiments

import (
	"fmt"

	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/units"
)

// The ablations probe the design choices DESIGN.md calls out. Each
// runs TLB variants under the loaded web-search environment (load 0.7,
// where granularity decisions actually bind) and reports short-flow
// AFCT and long-flow goodput.

// ablationLoad is the fabric load the ablations run at.
const ablationLoad = 0.7

// ablationVariant is one bar or sweep point of an ablation: a name
// (the scenario is labelled "tlb-<name>") and the TLB parameters it
// changes on top of the environment's (nil runs that TLB as-is).
type ablationVariant struct {
	name   string
	params spec.Params
}

// spec builds the variant's run in the ablation environment.
func (v ablationVariant) spec(o Options) spec.Spec {
	s := largeTLB(v.params)
	s.Label = "tlb-" + v.name
	return largeEnv(websearchSizes(), o.FlowsPerRun, ablationLoad).spec(s, loadName(s, ablationLoad), o.Seed)
}

// afctTputPanels returns the two panels a comparison reports, IDs
// id-afct and id-tput: short-flow AFCT and long-flow goodput.
func afctTputPanels(id, title, xlabel string) (Figure, Figure) {
	return Figure{ID: id + "-afct", Title: title + " (short AFCT)", XLabel: xlabel, YLabel: "AFCT (s)"},
		Figure{ID: id + "-tput", Title: title + " (long goodput)", XLabel: xlabel, YLabel: "Gbps"}
}

// afctTputBars runs one spec per bar as one batch and adds, in input
// order, each run's short-flow AFCT (s) to afct and its long-flow
// goodput (Gbps) to tput.
func (o Options) afctTputBars(prefix string, afct, tput Figure, labels []string, specs []spec.Spec) ([]Figure, error) {
	results, err := o.runSpecs(prefix, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		afct.Bars = append(afct.Bars, Bar{labels[i], res.AFCT(sim.ShortFlows).Seconds()})
		tput.Bars = append(tput.Bars, Bar{labels[i], float64(res.Goodput(sim.LongFlows)) / 1e9})
	}
	return []Figure{afct, tput}, nil
}

// sweepAblation runs one TLB variant per grid point and plots short
// AFCT and long goodput against x.
func sweepAblation(o Options, id, title, xlabel string, grid []float64, variant func(x float64) ablationVariant) ([]Figure, error) {
	afct, tput := afctTputPanels(id, title, xlabel)
	xs := trim(o, grid)
	specs := make([]spec.Spec, len(xs))
	for i, x := range xs {
		specs[i] = variant(x).spec(o)
	}
	results, err := o.runSpecs(id, specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		afct.add("tlb", xs[i], res.AFCT(sim.ShortFlows).Seconds())
		tput.add("tlb", xs[i], float64(res.Goodput(sim.LongFlows))/1e9)
	}
	return []Figure{afct, tput}, nil
}

// barAblation runs a bar-chart ablation: one named set of TLB
// parameters per bar.
func barAblation(o Options, id, title string, bars []ablationVariant) ([]Figure, error) {
	afct, tput := afctTputPanels(id, title, "")
	labels := make([]string, len(bars))
	specs := make([]spec.Spec, len(bars))
	for i, b := range bars {
		labels[i], specs[i] = b.name, b.spec(o)
	}
	return o.afctTputBars(id, afct, tput, labels, specs)
}

// AblationInterval sweeps the q_th update interval t.
func AblationInterval(o Options) ([]Figure, error) {
	return sweepAblation(o, "ablation-interval", "TLB update interval", "interval (µs)",
		[]float64{125, 250, 500, 1000, 2000}, func(us float64) ablationVariant {
			return ablationVariant{fmt.Sprintf("t%v", us),
				spec.Params{"interval": pDur(units.Time(us) * units.Microsecond)}}
		})
}

// AblationThreshold sweeps the short/long classification boundary.
func AblationThreshold(o Options) ([]Figure, error) {
	return sweepAblation(o, "ablation-threshold", "Short/long classification threshold", "threshold (KB)",
		[]float64{25, 50, 100, 200, 400}, func(kb float64) ablationVariant {
			return ablationVariant{fmt.Sprintf("th%v", kb),
				spec.Params{"shortThreshold": string(spec.Sz(units.Bytes(kb) * units.KB))}}
		})
}

// AblationFixedGranularity compares adaptive q_th against fixed
// thresholds (0 = switch per packet, buffer = never switch), isolating
// the value of the granularity calculator.
func AblationFixedGranularity(o Options) ([]Figure, error) {
	return barAblation(o, "ablation-fixed", "Adaptive vs fixed q_th", []ablationVariant{
		{"adaptive", nil},
		{"fixed-0", spec.Params{"fixedQTh": 0}},
		{"fixed-16", spec.Params{"fixedQTh": 16}},
		{"fixed-64", spec.Params{"fixedQTh": 64}},
		{"fixed-256", spec.Params{"fixedQTh": 256}},
	})
}

// AblationShortPolicy swaps the short-flow per-packet policy: global
// shortest queue (TLB's choice), DRILL-style power-of-two-choices, and
// uniform random spraying, while keeping the adaptive long-flow logic.
func AblationShortPolicy(o Options) ([]Figure, error) {
	return barAblation(o, "ablation-shortpolicy", "Short-flow path policy", []ablationVariant{
		{"shortest-queue", nil},
		{"po2c", spec.Params{"shortPolicy": "po2c"}},
		{"random", spec.Params{"shortPolicy": "random"}},
	})
}

// AblationSafeSwitch quantifies deviation #2 of DESIGN.md: the
// reorder-safe switching guard on and off, plus hysteresis on and off.
func AblationSafeSwitch(o Options) ([]Figure, error) {
	return barAblation(o, "ablation-safeswitch", "Reorder-safe switching", []ablationVariant{
		{"guarded", nil},
		{"no-guard", spec.Params{"disableSafeSwitch": true}},
		{"no-hysteresis", spec.Params{"shortHysteresis": 0}},
		{"neither", spec.Params{"disableSafeSwitch": true, "shortHysteresis": 0}},
	})
}

// AblationDemandCap quantifies deviation #3: Eq. 1's long-flow demand
// with and without the line-rate cap.
func AblationDemandCap(o Options) ([]Figure, error) {
	return barAblation(o, "ablation-demandcap", "Eq.1 demand cap", []ablationVariant{
		{"capped", nil},
		{"paper-literal", spec.Params{"uncappedLongDemand": true}},
	})
}
