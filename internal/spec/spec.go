// Package spec is the declarative scenario layer: a versioned JSON
// description of one simulation run — topology, transport, workload,
// scheme + parameters, fault schedule, outputs — with a validating
// compiler down to sim.Scenario. Every figure runner in
// internal/experiments builds its scenarios through this layer, so
// anything the experiments can run, a spec file can too (and vice
// versa: cmd/tlbsim -spec runs any spec file with no Go changes).
//
// Physical quantities are exact unit strings ("150us", "100KB",
// "64KiB", "20Mbps"; see units.Parse*/Format*), so a compiled spec
// marshals back to the same scenario byte for byte. Validation
// aggregates every problem with a JSON-path-style location
// ("workload.load: must be in (0,1]") instead of stopping at the
// first.
package spec

import (
	"encoding/json"
	"sort"

	"tlb/internal/units"
)

// Version is the spec format version this build reads and writes.
const Version = 1

// Duration is an exact duration string ("150us", "30s").
type Duration string

// Size is an exact byte-size string ("100KB", "64KiB").
type Size string

// Rate is an exact bandwidth string ("1Gbps", "20Mbps").
type Rate string

// Dur renders a time as its spec string.
func Dur(t units.Time) Duration { return Duration(units.FormatTime(t)) }

// Sz renders a byte count as its spec string.
func Sz(b units.Bytes) Size { return Size(units.FormatBytes(b)) }

// Bw renders a bandwidth as its spec string.
func Bw(b units.Bandwidth) Rate { return Rate(units.FormatBandwidth(b)) }

// Spec is one complete scenario description.
type Spec struct {
	// Version is the format version (see Version).
	Version int `json:"version"`
	// Name labels the run in results and progress lines.
	Name string `json:"name"`
	// RunID, when set, is echoed back by the serve layer (run handles,
	// SSE events, report rows). Compile ignores it — it is submission
	// metadata, not simulation input.
	RunID string `json:"runId,omitempty"`
	// Seed drives all randomness; the same spec + seed reproduces
	// every number exactly.
	Seed uint64 `json:"seed"`

	Scheme   Scheme   `json:"scheme"`
	Topology Topology `json:"topology"`
	// Transport sets the run's endpoint choices; unset fields keep the
	// paper's DCTCP (see transport.Config).
	Transport *Transport `json:"transport,omitempty"`
	Workload  Workload   `json:"workload"`
	// Faults is the run's link-fault schedule (leaf-spine fabrics
	// only).
	Faults []Fault `json:"faults,omitempty"`
	// Replication enables RepFlow-style short-flow replication on top
	// of the scheme.
	Replication *Replication `json:"replication,omitempty"`

	Run     Run     `json:"run"`
	Outputs Outputs `json:"outputs"`
}

// Scheme names the balancer and its parameters. Name must be a
// registered scheme (lb.Names() enumerates them); Params must match
// that scheme's schema.
type Scheme struct {
	Name string `json:"name"`
	// Label, when set, is the display name results carry ("flow" for
	// ecmp in the motivation figures); it defaults to Name.
	Label  string `json:"label,omitempty"`
	Params Params `json:"params,omitempty"`
}

// Params carries scheme parameters. Values are unit strings for
// quantities and plain JSON numbers/bools/strings otherwise; it
// marshals with sorted keys so specs serialize deterministically.
type Params map[string]any

// MarshalJSON writes the map in sorted-key order.
func (p Params) MarshalJSON() ([]byte, error) {
	keys := make([]string, 0, len(p))
	//simlint:allow maporder(keys are collected here and sorted below before any use)
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := []byte{'{'}
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(p[k])
		if err != nil {
			return nil, err
		}
		buf = append(buf, kb...)
		buf = append(buf, ':')
		buf = append(buf, vb...)
	}
	return append(buf, '}'), nil
}

// Topology describes the fabric.
type Topology struct {
	// Kind is "leafspine" (default when empty) or "fattree".
	Kind string `json:"kind,omitempty"`

	// Leaf-spine dimensions.
	Leaves       int `json:"leaves,omitempty"`
	Spines       int `json:"spines,omitempty"`
	HostsPerLeaf int `json:"hostsPerLeaf,omitempty"`

	// K is the fat-tree arity (k pods, k^3/4 hosts).
	K int `json:"k,omitempty"`

	HostLink   Link  `json:"hostLink"`
	FabricLink Link  `json:"fabricLink"`
	Queue      Queue `json:"queue"`

	// Overrides re-parameterize specific leaf-spine pairs (static
	// asymmetry, as in the paper's Fig. 16/17).
	Overrides []Override `json:"overrides,omitempty"`
}

// Link is one directed link's parameters.
type Link struct {
	Bandwidth Rate     `json:"bandwidth"`
	Delay     Duration `json:"delay"`
}

// Queue parameterizes every output queue.
type Queue struct {
	// Capacity is the buffer size in packets.
	Capacity int `json:"capacity"`
	// ECNThreshold is the marking threshold in packets; 0 disables
	// marking (drop-tail only).
	ECNThreshold int `json:"ecnThreshold,omitempty"`
}

// Override re-parameterizes one leaf-spine pair in both directions.
type Override struct {
	Leaf  int  `json:"leaf"`
	Spine int  `json:"spine"`
	Link  Link `json:"link"`
}

// Transport sets the endpoints' transport.Config; nil fields keep its
// zero value, the paper's DCTCP. Segment and header sizes, windows and
// the remaining TCP constants are the transport package's, fixed for
// every run.
type Transport struct {
	// MinRTO is the RTO floor (10ms when unset or zero).
	MinRTO *Duration `json:"minRTO,omitempty"`
	// DCTCP false runs TCP NewReno's ECN reaction instead.
	DCTCP      *bool `json:"dctcp,omitempty"`
	DelayedAck *bool `json:"delayedAck,omitempty"`
	SACK       *bool `json:"sack,omitempty"`
}

// Workload generates the run's flows. Exactly one kind is active;
// the other kinds' fields must be unset.
type Workload struct {
	// Kind is "poisson", "mix" or "interpod". The workload draws from
	// its own RNG, seeded with the scenario seed + 1 (the
	// repository-wide convention).
	Kind string `json:"kind"`

	// Poisson (open-loop arrivals at a fabric load; leaf-spine only):
	// Flows arrive Poisson between random cross-leaf host pairs, sized
	// from Sizes, at rate load * aggregate-fabric-capacity / mean size.
	Flows int       `json:"flows,omitempty"`
	Load  float64   `json:"load,omitempty"`
	Sizes *SizeDist `json:"sizes,omitempty"`

	// Mix (closed populations of shorts and longs): each group is one
	// StaticMix drawn from the shared workload RNG in order. Senders
	// and Receivers default to leaf 0's hosts and leaf 1's hosts.
	Groups    []MixGroup `json:"groups,omitempty"`
	Senders   []int      `json:"senders,omitempty"`
	Receivers []int      `json:"receivers,omitempty"`

	// InterPod (fat-tree cross-pod traffic).
	InterPod *InterPod `json:"interPod,omitempty"`

	// Deadlines assigns completion budgets during generation (poisson
	// and mix groups without their own).
	Deadlines *Deadlines `json:"deadlines,omitempty"`

	// DeadlineOverride rewrites every generated flow's deadline after
	// generation — the model-verification experiments pin all shorts
	// to one budget D this way.
	DeadlineOverride *DeadlineOverride `json:"deadlineOverride,omitempty"`
}

// MixGroup is one StaticMix population.
type MixGroup struct {
	Shorts     int       `json:"shorts,omitempty"`
	Longs      int       `json:"longs,omitempty"`
	ShortSizes *SizeDist `json:"shortSizes,omitempty"`
	LongSizes  *SizeDist `json:"longSizes,omitempty"`
	// ArrivalJitter spreads starts uniformly over [0, jitter].
	ArrivalJitter Duration `json:"arrivalJitter,omitempty"`
	// Deadlines, when set, overrides Workload.Deadlines for this group.
	Deadlines *Deadlines `json:"deadlines,omitempty"`
}

// InterPod is the fat-tree workload: flows between hosts in different
// pods, arriving with uniform random gaps.
type InterPod struct {
	Flows int      `json:"flows"`
	Sizes SizeDist `json:"sizes"`
	// MaxGap bounds the uniform inter-arrival gap.
	MaxGap Duration `json:"maxGap"`
	// Deadline = start + base + U[0, jitter), for flows at or below
	// OnlyBelow; jitter 0 disables deadlines.
	DeadlineBase      Duration `json:"deadlineBase,omitempty"`
	DeadlineJitter    Duration `json:"deadlineJitter,omitempty"`
	DeadlineOnlyBelow Size     `json:"deadlineOnlyBelow,omitempty"`
}

// SizeDist is a flow-size distribution.
type SizeDist struct {
	// Kind is "websearch", "datamining", "uniform" or "fixed".
	Kind string `json:"kind"`
	// Min/Max bound the uniform distribution.
	Min Size `json:"min,omitempty"`
	Max Size `json:"max,omitempty"`
	// Size is the fixed distribution's value.
	Size Size `json:"size,omitempty"`
	// Truncate caps samples of any kind (the experiments truncate the
	// heavy tails to bound run time).
	Truncate Size `json:"truncate,omitempty"`
}

// Deadlines assigns uniform completion budgets.
type Deadlines struct {
	Min Duration `json:"min"`
	Max Duration `json:"max"`
	// OnlyBelow restricts deadlines to flows at or below this size;
	// empty applies them to every flow.
	OnlyBelow Size `json:"onlyBelow,omitempty"`
}

// DeadlineOverride rewrites deadlines after generation: flows at or
// below OnlyBelow (everything when empty) get start + Deadline, all
// others get none.
type DeadlineOverride struct {
	Deadline  Duration `json:"deadline"`
	OnlyBelow Size     `json:"onlyBelow,omitempty"`
}

// Fault is one scheduled link fault on both directions of a leaf-spine
// pair (see internal/faults).
type Fault struct {
	At    Duration `json:"at"`
	Leaf  int      `json:"leaf"`
	Spine int      `json:"spine"`
	// Op is "down" or "restore".
	Op string `json:"op"`
}

// Replication parameterizes RepFlow-style replication.
type Replication struct {
	Threshold Size `json:"threshold"`
	Copies    int  `json:"copies"`
}

// Run sets the stop criteria. Results classify flows at
// sim.ShortThreshold (100KB).
type Run struct {
	// MaxTime hard-stops the run (the runner defaults to 60s when
	// empty).
	MaxTime Duration `json:"maxTime,omitempty"`
	// StopWhenDone ends the run once every flow completed.
	StopWhenDone bool `json:"stopWhenDone,omitempty"`
	// Shards is accepted (negatives rejected) and ignored: every run is
	// one engine.
	//
	// Deprecated: the sharded runner was removed in PR 16; the field
	// stays until the benchmark's fattree-mice-sharded workload, which
	// sets it, is dropped — then run.shards becomes a validation error.
	Shards int `json:"shards,omitempty"`
}

// Outputs selects optional measurement collection.
type Outputs struct {
	// CollectTimeSeries enables the bucketed instantaneous series.
	CollectTimeSeries bool `json:"collectTimeSeries,omitempty"`
	// TimeBucket is the series bucket width (default 1ms).
	TimeBucket Duration `json:"timeBucket,omitempty"`
	// StreamStats keeps only the fixed-size per-class aggregates every
	// run folds its flow records into and does not retain the records —
	// O(1) memory per flow, for large-scale runs; FCT percentiles are
	// then sketch estimates. It decides nothing else (the workload's
	// form follows from its kind; the series and the queue-length
	// histogram fold as they happen either way). Incompatible with
	// replication.
	StreamStats bool `json:"streamStats,omitempty"`
	// Report includes this run in the self-contained HTML report the
	// serve layer (and examples/serve) renders; a campaign where no spec
	// sets it reports every run. Compile ignores it.
	Report bool `json:"report,omitempty"`
}
