package core

import (
	"slices"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// shortPolicyNames are the spec-level policy strings, indexed by
// ShortPolicy.
var shortPolicyNames = []string{
	ShortShortestQueue: "shortest-queue",
	ShortPowerOfTwo:    "po2c",
	ShortRandom:        "random",
}

// registration declares TLB's parameters; the defaults mirror the
// paper's NS2 setup.
var registration = lb.Registration{
	Name: "tlb",
	Doc:  "the paper's traffic-aware adaptive-granularity balancer",
	Params: []lb.Param{
		{Name: "shortThreshold", Doc: "short/long classification boundary", Default: 100 * units.KB, Min: 1},
		{Name: "interval", Doc: "q_th update period t", Default: 500 * units.Microsecond, Min: 1},
		// 25th percentile of the paper's U[5ms, 25ms] deadlines.
		{Name: "deadline", Doc: "short-flow completion budget D", Default: 10 * units.Millisecond, Min: 1},
		{Name: "meanShortSize", Doc: "mean short-flow size X", Default: 70 * units.KB, Min: 1},
		{Name: "fixedQTh", Doc: "pin q_th instead of adapting; -1 adapts", Default: -1, Min: -1},
		{Name: "shortPolicy", Doc: "short-flow path policy", Default: shortPolicyNames[ShortShortestQueue], OneOf: shortPolicyNames},
		{Name: "shortHysteresis", Doc: "short-flow queue-difference hysteresis in packets", Default: 1},
		{Name: "uncappedLongDemand", Doc: "use the paper's literal Eq. 1 long-flow demand", Default: false},
		{Name: "disableSafeSwitch", Doc: "turn off the reordering guard", Default: false},
	},
	Build: func(a lb.Args, env lb.Env) lb.Factory {
		cfg := newConfig(a, env)
		return func(sim *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
			return New(sim, rng, ports, cfg)
		}
	},
}

func init() { lb.Register(registration) }

// NewConfig returns the configuration lb.Build gives a TLB for these
// scheme parameters (nil: all defaults) in this environment.
func NewConfig(params map[string]any, env lb.Env) (Config, error) {
	a, err := registration.Decode(params, "scheme.params")
	if err != nil {
		return Config{}, err
	}
	return newConfig(a, env), nil
}

func newConfig(a lb.Args, env lb.Env) Config {
	return Config{
		ShortThreshold:     a.Bytes("shortThreshold"),
		Interval:           a.Duration("interval"),
		Deadline:           a.Duration("deadline"),
		MeanShortSize:      a.Bytes("meanShortSize"),
		FixedQTh:           a.Int("fixedQTh"),
		ShortFlowPolicy:    ShortPolicy(slices.Index(shortPolicyNames, a.String("shortPolicy"))),
		ShortHysteresis:    a.Int("shortHysteresis"),
		UncappedLongDemand: a.Bool("uncappedLongDemand"),
		DisableSafeSwitch:  a.Bool("disableSafeSwitch"),
		Env:                env,
	}
}
