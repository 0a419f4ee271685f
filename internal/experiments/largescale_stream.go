package experiments

// figLS is the streaming-scale experiment: one k=16 fat-tree scenario
// with ~1M flows run under outputs.streamStats, where the workload is
// generated lazily and every completed flow folds into fixed-size
// per-class aggregates — O(1) memory per flow. The figure holds only
// simulated quantities (so its CSV is reproducible and pinned as a
// golden); the two host-dependent scale numbers — flows per wall-clock
// second and the process's peak RSS — go to Options.Log.

import (
	"fmt"
	"time"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/units"
)

// figLSFlowFactor scales Options.FlowsPerRun (800 by default) to the
// streamed run's flow count: the default hits 1M flows, the Quick()
// benchmark scale stays far smaller, and `-flows 8` is a ten-thousand
// flow smoke run.
const figLSFlowFactor = 1250

// figLSTopo is the k=16 fat-tree: 1024 hosts in 16 pods, full
// bisection at 1 Gbps.
func figLSTopo() topology.Config {
	return topology.Config{
		K:          16,
		HostLink:   netem.LinkConfig{Bandwidth: units.Gbps, Delay: 5 * units.Microsecond},
		FabricLink: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		Queue:      netem.QueueConfig{Capacity: 256, ECNThreshold: 65},
	}
}

// figLSSpecs builds the streamed batch (currently one ECMP run; the
// memory behavior under test is the stats layer's, not the balancer's).
// Mice-only sizes keep the event count per flow small enough that a
// million flows stay in minutes of wall clock; arrivals average one
// flow per 600 ns, ~0.23 load against the hosts' aggregate 1 Tbps —
// low enough that the run is stationary (FCTs, and with them the
// peak number of concurrently open flows, do not grow with run
// length), which is what makes peak RSS independent of the total
// flow count.
func figLSSpecs(o Options) ([]string, []spec.Spec) {
	ft := figLSTopo()
	sp := spec.Spec{
		Version:  spec.Version,
		Name:     fmt.Sprintf("largescale-ecmp-%dk", o.FlowsPerRun*figLSFlowFactor/1000),
		Seed:     o.Seed,
		Scheme:   spec.Scheme{Name: "ecmp"},
		Topology: topoSpec(ft),
		Workload: spec.Workload{
			Kind: "interpod",
			InterPod: &spec.InterPod{
				Flows:             o.FlowsPerRun * figLSFlowFactor,
				Sizes:             spec.SizeDist{Kind: "uniform", Min: spec.Sz(2 * units.KB), Max: spec.Sz(32 * units.KB)},
				MaxGap:            spec.Dur(1200 * units.Nanosecond),
				DeadlineBase:      spec.Dur(5 * units.Millisecond),
				DeadlineJitter:    spec.Dur(20 * units.Millisecond),
				DeadlineOnlyBelow: spec.Sz(100 * units.KB),
			},
		},
		Outputs: spec.Outputs{StreamStats: true},
		Run: spec.Run{
			MaxTime:      spec.Dur(600 * units.Second),
			StopWhenDone: true,
		},
	}
	return []string{"ecmp"}, []spec.Spec{sp}
}

// FigLS runs the streamed million-flow scenario, reports the streamed
// statistics and logs the scale numbers (flows/sec wall clock, peak
// RSS). `-flows` scales the count: 800 (the default) is 1M flows, 8 is
// a 10k smoke run.
func FigLS(o Options) ([]Figure, error) {
	labels, specs := figLSSpecs(o)
	start := time.Now()
	results, err := o.runSpecs("figLS", specs)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	fig := Figure{
		ID:     "figLS",
		Title:  "streaming scale: k=16 fat-tree under streamStats (O(1) memory per flow)",
		YLabel: "mixed units, see bar labels",
	}
	for i, res := range results {
		if len(res.Flows) != 0 {
			return nil, fmt.Errorf("figLS: %s retained %d flow records, want streamStats", labels[i], len(res.Flows))
		}
		flows := res.Count(sim.AllFlows)
		fig.Bars = append(fig.Bars,
			Bar{labels[i] + " flows", float64(flows)},
			Bar{labels[i] + " completed", float64(res.CompletedCount(sim.AllFlows))},
			Bar{labels[i] + " AFCT (s)", res.AFCT(sim.ShortFlows).Seconds()},
			Bar{labels[i] + " p99 FCT (s)", res.FCTPercentile(sim.ShortFlows, 99).Seconds()},
			Bar{labels[i] + " deadline miss", res.DeadlineMissRatio(sim.ShortFlows)},
			Bar{labels[i] + " sim time (s)", res.EndTime.Seconds()},
		)
		o.logf("figLS: %s %d flows in %v: %.0f flows/sec (wall), peak RSS %.1f MB",
			labels[i], flows, elapsed.Round(time.Millisecond), float64(flows)/elapsed.Seconds(), PeakRSSMB())
	}
	return []Figure{fig}, nil
}
