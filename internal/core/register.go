package core

import "tlb/internal/lb"

// shortPolicyNames maps the spec-level policy strings onto the enum.
//
//simlint:allow sharedstate(immutable name table; never written after init)
var shortPolicyNames = []struct {
	name   string
	policy ShortPolicy
}{
	{"shortest-queue", ShortShortestQueue},
	{"po2c", ShortPowerOfTwo},
	{"random", ShortRandom},
}

// EnvConfig returns the TLB configuration every environment starts
// from: the paper's defaults with the fabric-derived fields (link
// rate, RTT, q_th cap) filled in. Registry-built TLBs apply their spec
// parameters on top of exactly this base.
func EnvConfig(env lb.Env) Config {
	cfg := DefaultConfig()
	cfg.LinkBandwidth = env.FabricBandwidth
	cfg.RTT = env.BaseRTT
	cfg.MaxQTh = env.QueueCapacity
	return cfg
}

func init() {
	lb.Register(lb.Registration{
		Name: "tlb",
		Doc:  "the paper's traffic-aware adaptive-granularity balancer",
		Params: []lb.Param{
			{Name: "shortThreshold", Kind: lb.KindBytes, Doc: "short/long classification boundary (default 100KB)"},
			{Name: "interval", Kind: lb.KindDuration, Doc: "q_th update period t (default 500us)"},
			{Name: "deadline", Kind: lb.KindDuration, Doc: "short-flow completion budget D (default 10ms)"},
			{Name: "meanShortSize", Kind: lb.KindBytes, Doc: "mean short-flow size X (default 70KB)"},
			{Name: "estimateShortSize", Kind: lb.KindBool, Doc: "estimate X online via EWMA (default false)"},
			{Name: "longWindow", Kind: lb.KindBytes, Doc: "long-flow window W_L (default 64KiB)"},
			{Name: "rtt", Kind: lb.KindDuration, Doc: "fabric RTT (default: derived from the topology)"},
			{Name: "linkBandwidth", Kind: lb.KindBandwidth, Doc: "per-path bandwidth C (default: the fabric link rate)"},
			{Name: "mss", Kind: lb.KindBytes, Doc: "segment size for byte/packet conversion (default 1460B)"},
			{Name: "maxQTh", Kind: lb.KindInt, Doc: "q_th clamp in packets (default: the queue capacity)"},
			{Name: "fixedQTh", Kind: lb.KindInt, Doc: "pin q_th instead of adapting; -1 adapts (default -1)"},
			{Name: "shortPolicy", Kind: lb.KindString, Doc: "short-flow path policy: shortest-queue, po2c or random"},
			{Name: "shortHysteresis", Kind: lb.KindInt, Doc: "short-flow queue-difference hysteresis in packets (default 1)"},
			{Name: "uncappedLongDemand", Kind: lb.KindBool, Doc: "use the paper's literal Eq. 1 long-flow demand (default false)"},
			{Name: "disableSafeSwitch", Kind: lb.KindBool, Doc: "turn off the reordering guard (default false)"},
			{Name: "escapeFactor", Kind: lb.KindFloat, Doc: "degradation ratio that overrides the guard; 0 derives 4, negative disables"},
		},
		Build: buildTLB,
	})
}

func buildTLB(a *lb.Args, env lb.Env) lb.Factory {
	cfg := EnvConfig(env)
	cfg.ShortThreshold = a.Bytes("shortThreshold", cfg.ShortThreshold)
	cfg.Interval = a.Duration("interval", cfg.Interval)
	cfg.Deadline = a.Duration("deadline", cfg.Deadline)
	cfg.MeanShortSize = a.Bytes("meanShortSize", cfg.MeanShortSize)
	cfg.EstimateShortSize = a.Bool("estimateShortSize", cfg.EstimateShortSize)
	cfg.LongWindow = a.Bytes("longWindow", cfg.LongWindow)
	cfg.RTT = a.Duration("rtt", cfg.RTT)
	cfg.LinkBandwidth = a.Bandwidth("linkBandwidth", cfg.LinkBandwidth)
	cfg.MSS = a.Bytes("mss", cfg.MSS)
	cfg.MaxQTh = a.Int("maxQTh", cfg.MaxQTh)
	cfg.FixedQTh = a.Int("fixedQTh", cfg.FixedQTh)
	if s := a.String("shortPolicy", ""); s != "" {
		found := false
		for _, e := range shortPolicyNames {
			if e.name == s {
				cfg.ShortFlowPolicy, found = e.policy, true
				break
			}
		}
		if !found {
			a.Errorf("shortPolicy", "unknown policy %q (valid: shortest-queue, po2c, random)", s)
		}
	}
	cfg.ShortHysteresis = a.Int("shortHysteresis", cfg.ShortHysteresis)
	cfg.UncappedLongDemand = a.Bool("uncappedLongDemand", cfg.UncappedLongDemand)
	cfg.DisableSafeSwitch = a.Bool("disableSafeSwitch", cfg.DisableSafeSwitch)
	cfg.EscapeFactor = a.Float("escapeFactor", cfg.EscapeFactor)
	return Factory(cfg)
}
