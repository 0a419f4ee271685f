package experiments

import (
	"fmt"

	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// The ablations probe the design choices DESIGN.md calls out. Each
// runs TLB variants under the loaded web-search environment (load 0.7,
// where granularity decisions actually bind) and reports short-flow
// AFCT and long-flow goodput.

// ablationLoad is the fabric load the ablations run at.
const ablationLoad = 0.7

// ablationEnv builds the shared contended environment.
func ablationEnv(o Options) largeEnv {
	return newLargeEnv(websearchSizes(), o.FlowsPerRun)
}

// ablationVariant is one bar or sweep point of an ablation: a name
// (the scenario is labelled "tlb-<name>") and the TLB parameters it
// changes on top of the environment's (nil runs that TLB as-is).
type ablationVariant struct {
	name   string
	params spec.Params
}

// ablationMetrics is the (short AFCT s, long goodput Gbps, deadline
// miss fraction) triple every ablation reduces to.
type ablationMetrics struct {
	afct, tput, miss float64
}

// runAblation executes the variants as one batch on the shared runner
// and returns their metrics in input order.
func runAblation(o Options, label string, variants []ablationVariant) ([]ablationMetrics, error) {
	env := ablationEnv(o)
	specs := make([]spec.Spec, len(variants))
	for i, v := range variants {
		s := largeTLB(v.params)
		s.Label = "tlb-" + v.name
		specs[i] = env.spec(s, ablationLoad, o.Seed)
	}
	results, err := o.runSpecs(label, specs)
	if err != nil {
		return nil, err
	}
	out := make([]ablationMetrics, len(results))
	for i, res := range results {
		out[i] = ablationMetrics{
			afct: res.AFCT(sim.ShortFlows).Seconds(),
			tput: float64(res.Goodput(sim.LongFlows)) / 1e9,
			miss: res.DeadlineMissRatio(sim.ShortFlows),
		}
	}
	return out, nil
}

func ablationFigure(id, title, xlabel string) (Figure, Figure) {
	return Figure{ID: id + "-afct", Title: title + " (short AFCT)", XLabel: xlabel, YLabel: "AFCT (s)"},
		Figure{ID: id + "-tput", Title: title + " (long goodput)", XLabel: xlabel, YLabel: "Gbps"}
}

// AblationInterval sweeps the q_th update interval t.
func AblationInterval(o Options) ([]Figure, error) {
	afct, tput := ablationFigure("ablation-interval", "TLB update interval", "interval (µs)")
	grid := trim(o, []float64{125, 250, 500, 1000, 2000})
	variants := make([]ablationVariant, len(grid))
	for i, us := range grid {
		variants[i] = ablationVariant{fmt.Sprintf("t%v", us),
			spec.Params{"interval": pDur(units.Time(us) * units.Microsecond)}}
	}
	ms, err := runAblation(o, "ablation-interval", variants)
	if err != nil {
		return nil, err
	}
	sa := stats.Series{Name: "tlb"}
	st := stats.Series{Name: "tlb"}
	for i, us := range grid {
		sa.Add(us, ms[i].afct)
		st.Add(us, ms[i].tput)
	}
	afct.Series = []stats.Series{sa}
	tput.Series = []stats.Series{st}
	return []Figure{afct, tput}, nil
}

// AblationThreshold sweeps the short/long classification boundary.
func AblationThreshold(o Options) ([]Figure, error) {
	afct, tput := ablationFigure("ablation-threshold", "Short/long classification threshold", "threshold (KB)")
	grid := trim(o, []float64{25, 50, 100, 200, 400})
	variants := make([]ablationVariant, len(grid))
	for i, kb := range grid {
		variants[i] = ablationVariant{fmt.Sprintf("th%v", kb),
			spec.Params{"shortThreshold": string(spec.Sz(units.Bytes(kb) * units.KB))}}
	}
	ms, err := runAblation(o, "ablation-threshold", variants)
	if err != nil {
		return nil, err
	}
	sa := stats.Series{Name: "tlb"}
	st := stats.Series{Name: "tlb"}
	for i, kb := range grid {
		sa.Add(kb, ms[i].afct)
		st.Add(kb, ms[i].tput)
	}
	afct.Series = []stats.Series{sa}
	tput.Series = []stats.Series{st}
	return []Figure{afct, tput}, nil
}

// barAblation runs a bar-chart ablation: one named set of TLB
// parameters per bar.
func barAblation(o Options, label string, afct, tput Figure, bars []ablationVariant) ([]Figure, error) {
	ms, err := runAblation(o, label, bars)
	if err != nil {
		return nil, err
	}
	for i, b := range bars {
		afct.Bars = append(afct.Bars, Bar{b.name, ms[i].afct})
		tput.Bars = append(tput.Bars, Bar{b.name, ms[i].tput})
	}
	return []Figure{afct, tput}, nil
}

// AblationFixedGranularity compares adaptive q_th against fixed
// thresholds (0 = switch per packet, buffer = never switch), isolating
// the value of the granularity calculator.
func AblationFixedGranularity(o Options) ([]Figure, error) {
	afct := Figure{ID: "ablation-fixed-afct", Title: "Adaptive vs fixed q_th (short AFCT)",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "ablation-fixed-tput", Title: "Adaptive vs fixed q_th (long goodput)",
		YLabel: "Gbps"}
	return barAblation(o, "ablation-fixed", afct, tput, []ablationVariant{
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
	afct := Figure{ID: "ablation-shortpolicy-afct", Title: "Short-flow path policy (short AFCT)",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "ablation-shortpolicy-tput", Title: "Short-flow path policy (long goodput)",
		YLabel: "Gbps"}
	return barAblation(o, "ablation-shortpolicy", afct, tput, []ablationVariant{
		{"shortest-queue", nil},
		{"po2c", spec.Params{"shortPolicy": "po2c"}},
		{"random", spec.Params{"shortPolicy": "random"}},
	})
}

// AblationSafeSwitch quantifies deviation #2 of DESIGN.md: the
// reorder-safe switching guard on and off, plus hysteresis on and off.
func AblationSafeSwitch(o Options) ([]Figure, error) {
	afct := Figure{ID: "ablation-safeswitch-afct", Title: "Reorder-safe switching (short AFCT)",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "ablation-safeswitch-tput", Title: "Reorder-safe switching (long goodput)",
		YLabel: "Gbps"}
	return barAblation(o, "ablation-safeswitch", afct, tput, []ablationVariant{
		{"guarded", nil},
		{"no-guard", spec.Params{"disableSafeSwitch": true}},
		{"no-hysteresis", spec.Params{"shortHysteresis": 0}},
		{"neither", spec.Params{"disableSafeSwitch": true, "shortHysteresis": 0}},
	})
}

// AblationDemandCap quantifies deviation #3: Eq. 1's long-flow demand
// with and without the line-rate cap.
func AblationDemandCap(o Options) ([]Figure, error) {
	afct := Figure{ID: "ablation-demandcap-afct", Title: "Eq.1 demand cap (short AFCT)",
		YLabel: "AFCT (s)"}
	tput := Figure{ID: "ablation-demandcap-tput", Title: "Eq.1 demand cap (long goodput)",
		YLabel: "Gbps"}
	return barAblation(o, "ablation-demandcap", afct, tput, []ablationVariant{
		{"capped", nil},
		{"paper-literal", spec.Params{"uncappedLongDemand": true}},
	})
}
