package experiments

// Every figure runner builds spec.Spec values and executes them via
// Options.runSpecs, so each scenario an experiment runs is serializable
// (-dump-specs) and reproducible from JSON alone (tlbsim -spec). The
// topology renderers below are the only struct-to-spec mappings (see
// "Shared scenario environments" in experiments.go).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/units"
)

// pDur renders a duration as a scheme-parameter value.
func pDur(t units.Time) string { return string(spec.Dur(t)) }

// linkSpec renders one link's parameters.
func linkSpec(l netem.LinkConfig) spec.Link {
	return spec.Link{Bandwidth: spec.Bw(l.Bandwidth), Delay: spec.Dur(l.Delay)}
}

// topoSpec renders a topology of either shape.
func topoSpec(t topology.Config) spec.Topology {
	ts := spec.Topology{
		K:            t.K,
		Leaves:       t.Leaves,
		Spines:       t.Spines,
		HostsPerLeaf: t.HostsPerLeaf,
		HostLink:     linkSpec(t.HostLink),
		FabricLink:   linkSpec(t.FabricLink),
		Queue:        spec.Queue{Capacity: t.Queue.Capacity, ECNThreshold: t.Queue.ECNThreshold},
	}
	if t.K != 0 {
		ts.Kind = "fattree"
	}
	for _, o := range t.Overrides {
		ts.Overrides = append(ts.Overrides, spec.Override{
			Leaf: o.Leaf, Spine: o.Spine, Link: linkSpec(o.Link),
		})
	}
	return ts
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
