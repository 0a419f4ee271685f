package experiments

import (
	"fmt"

	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/stats"
	"tlb/internal/units"
)

// Fig3And4 reproduces the §2.2 motivation study: 100 short + 5 long
// flows on 15 paths, rerouted at flow (ECMP), flowlet (LetFlow 150 µs)
// and packet (RPS) granularity.
//
// Returned figures:
//
//	fig3a — CDF of queue length experienced by short-flow packets
//	fig3b — duplicate-ACK ratio of short flows (bars)
//	fig3c — CDF of short-flow FCT
//	fig4a — mean uplink utilization (bars)
//	fig4b — long-flow out-of-order ratio (bars)
//	fig4c — mean long-flow throughput, fraction of capacity (bars)
func Fig3And4(o Options) ([]Figure, error) {
	e := basicEnv(256, 100, 5)
	granularities := []Scheme{
		{Name: "ecmp", Label: "flow"},
		{Name: "letflow", Label: "flowlet", Params: spec.Params{"gap": pDur(150 * units.Microsecond)}},
		{Name: "rps", Label: "packet"},
	}

	queueCDF := Figure{ID: "fig3a", Title: "Queue length seen by short-flow packets",
		XLabel: "queue length (packets)", YLabel: "CDF"}
	dupAck := Figure{ID: "fig3b", Title: "Duplicate-ACK ratio of short flows",
		YLabel: "dup ACKs / packets received"}
	fctCDF := Figure{ID: "fig3c", Title: "Short-flow FCT",
		XLabel: "FCT (s)", YLabel: "CDF"}
	util := Figure{ID: "fig4a", Title: "Mean uplink utilization",
		YLabel: "busy fraction"}
	ooo := Figure{ID: "fig4b", Title: "Long-flow out-of-order arrivals",
		YLabel: "out-of-order / packets received"}
	tput := Figure{ID: "fig4c", Title: "Mean long-flow throughput",
		YLabel: "fraction of link capacity"}

	specs := make([]spec.Spec, len(granularities))
	for i, g := range granularities {
		specs[i] = e.spec(g, g.label(), o.Seed)
	}
	results, err := o.runSpecs("fig3/4", specs)
	if err != nil {
		return nil, fmt.Errorf("fig3/4: %w", err)
	}
	for i, g := range granularities {
		res := results[i]
		if unfinished := res.Count(sim.AllFlows) - res.CompletedCount(sim.AllFlows); unfinished > 0 {
			o.logf("fig3/4: %s left %d flows unfinished at %v", g.label(), unfinished, res.EndTime)
		}

		queueCDF.Series = append(queueCDF.Series, stats.Series{
			Name: g.label(), Points: res.ShortQueueLen.CDF(50),
		})
		dupAck.Bars = append(dupAck.Bars, Bar{g.label(), res.DupAckRatio(sim.ShortFlows)})
		fctCDF.Series = append(fctCDF.Series, stats.Series{
			Name: g.label(), Points: res.Stream.Agg(sim.ShortFlows).FCTs().CDF(50),
		})

		util.Bars = append(util.Bars, Bar{g.label(), res.UplinkUtilization()})
		ooo.Bars = append(ooo.Bars, Bar{g.label(), res.OutOfOrderRatio(sim.LongFlows)})
		capacity := float64(e.topo.FabricLink.Bandwidth)
		tput.Bars = append(tput.Bars, Bar{g.label(), float64(res.Goodput(sim.LongFlows)) / capacity})
	}
	return []Figure{queueCDF, dupAck, fctCDF, util, ooo, tput}, nil
}

// fig89Specs builds the §6.1 basic-test batch: TLB against the
// baselines in the 3-long/100-short environment, with the
// instantaneous time series enabled. Shared with the golden-spec
// tests.
func fig89Specs(o Options) ([]Scheme, []spec.Spec) {
	e := basicEnv(256, 100, 3)
	schemes := append(baselines(150*units.Microsecond), Scheme{Name: "tlb"})
	specs := make([]spec.Spec, len(schemes))
	for i, s := range schemes {
		sp := e.spec(s, s.label(), o.Seed)
		sp.Outputs.TimeBucket = spec.Dur(2 * units.Millisecond)
		specs[i] = sp
	}
	return schemes, specs
}

// Fig8And9 reproduces the §6.1 basic performance test: TLB against the
// baselines in the 3-long/100-short environment, reporting the
// instantaneous behaviour of short flows (reordering ratio, queueing
// delay) and long flows (reordering, throughput).
//
//	fig8a — short-flow reordering ratio over time
//	fig8b — short-flow mean queueing delay over time (µs)
//	fig9a — long-flow reordering ratio over time
//	fig9b — long-flow aggregate goodput over time (Gbps)
//	fig8-9-summary — whole-run long-flow goodput per flow (Gbps)
func Fig8And9(o Options) ([]Figure, error) {
	schemes, specs := fig89Specs(o)

	shortOOO := Figure{ID: "fig8a", Title: "Short-flow reordering over time",
		XLabel: "time (s)", YLabel: "out-of-order fraction"}
	shortDelay := Figure{ID: "fig8b", Title: "Short-flow queueing delay over time",
		XLabel: "time (s)", YLabel: "mean queueing delay (µs)"}
	longOOO := Figure{ID: "fig9a", Title: "Long-flow reordering over time",
		XLabel: "time (s)", YLabel: "out-of-order fraction"}
	longTput := Figure{ID: "fig9b", Title: "Long-flow goodput over time",
		XLabel: "time (s)", YLabel: "Gbps"}
	summary := Figure{ID: "fig8-9-summary", Title: "Long-flow goodput per flow (whole run)",
		YLabel: "Gbps per flow"}

	results, err := o.runSpecs("fig8/9", specs)
	if err != nil {
		return nil, fmt.Errorf("fig8/9: %w", err)
	}
	for i, s := range schemes {
		res := results[i]
		shortOOO.Series = append(shortOOO.Series, stats.Series{
			Name: s.label(), Points: res.ShortOOORatio.Means(),
		})
		shortDelay.Series = append(shortDelay.Series, stats.Series{
			Name: s.label(), Points: res.ShortQueueDelayUs.Means(),
		})
		longOOO.Series = append(longOOO.Series, stats.Series{
			Name: s.label(), Points: res.LongOOORatio.Means(),
		})
		rates := res.LongGoodputBytes.Rates()
		for i := range rates {
			rates[i].Y = rates[i].Y * 8 / 1e9 // bytes/s -> Gbps
		}
		longTput.Series = append(longTput.Series, stats.Series{Name: s.label(), Points: rates})
		summary.Bars = append(summary.Bars, Bar{
			Label: s.label(),
			Value: float64(res.Goodput(sim.LongFlows)) / 1e9,
		})
	}
	return []Figure{shortOOO, shortDelay, longOOO, longTput, summary}, nil
}
