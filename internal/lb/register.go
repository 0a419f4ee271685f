package lb

// Registrations for every baseline scheme this package implements. TLB
// registers itself the same way from internal/core, so the full scheme
// list is the union the registry reports via Names().

func init() {
	Register(Registration{
		Name:  "ecmp",
		Doc:   "static flow hashing (flow granularity)",
		Build: func(Args, Env) Factory { return ECMP() },
	})
	Register(Registration{
		Name:  "rps",
		Doc:   "random packet spraying (packet granularity)",
		Build: func(Args, Env) Factory { return RPS() },
	})
	Register(Registration{
		Name:  "presto",
		Doc:   "fixed-size flowcells, round-robin uplinks",
		Build: func(Args, Env) Factory { return Presto() },
	})
	Register(Registration{
		Name: "letflow",
		Doc:  "flowlet switching on an inactivity gap",
		Params: []Param{
			{Name: "gap", Doc: "flowlet inactivity timeout", Default: LetFlowGap, Min: 1},
		},
		Build: func(a Args, _ Env) Factory { return LetFlow(a.Duration("gap")) },
	})
	Register(Registration{
		Name:  "drill",
		Doc:   "per-packet power-of-d-choices with memory",
		Build: func(Args, Env) Factory { return DRILL() },
	})
	Register(Registration{
		Name:  "flowbender",
		Doc:   "congestion-triggered flow re-hashing",
		Build: func(_ Args, env Env) Factory { return FlowBender(env.ECNThreshold) },
	})
	Register(Registration{
		Name:  "conga",
		Doc:   "congestion-aware flowlet switching (local signals)",
		Build: func(Args, Env) Factory { return CongaFlowlet() },
	})
	Register(Registration{
		Name:  "hermes",
		Doc:   "cautious rerouting on strong path degradation",
		Build: func(Args, Env) Factory { return Hermes() },
	})
	Register(Registration{
		Name:  "wcmp",
		Doc:   "bandwidth-weighted static flow hashing",
		Build: func(Args, Env) Factory { return WCMP() },
	})
}
