package topology

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// specLink and specTopology decode a spec file's "topology" block (the
// spec package imports this one, so its loader is out of reach here).
type specLink struct{ Bandwidth, Delay string }

type specTopology struct {
	K, Leaves, Spines, HostsPerLeaf int
	HostLink, FabricLink            specLink
	Queue                           netem.QueueConfig
	Overrides                       []struct {
		Leaf, Spine int
		Link        specLink
	}
}

func (l specLink) config(t *testing.T) netem.LinkConfig {
	t.Helper()
	bw, err := units.ParseBandwidth(l.Bandwidth)
	if err != nil {
		t.Fatal(err)
	}
	d, err := units.ParseTime(l.Delay)
	if err != nil {
		t.Fatal(err)
	}
	return netem.LinkConfig{Bandwidth: bw, Delay: d}
}

func (st specTopology) config(t *testing.T) Config {
	t.Helper()
	cfg := Config{
		K: st.K, Leaves: st.Leaves, Spines: st.Spines, HostsPerLeaf: st.HostsPerLeaf,
		HostLink: st.HostLink.config(t), FabricLink: st.FabricLink.config(t), Queue: st.Queue,
	}
	for _, o := range st.Overrides {
		cfg.Overrides = append(cfg.Overrides, LinkOverride{Leaf: o.Leaf, Spine: o.Spine, Link: o.Link.config(t)})
	}
	return cfg
}

// checkedInTopologies returns the topology of every spec checked in
// under the module root — every "topology" block of a JSON document,
// lists of specs included — keyed by file and position.
func checkedInTopologies(t *testing.T) map[string]Config {
	t.Helper()
	out := map[string]Config{}
	var walk func(at string, doc any)
	walk = func(at string, doc any) {
		switch v := doc.(type) {
		case map[string]any:
			block, ok := v["topology"].(map[string]any)
			if !ok {
				return
			}
			data, err := json.Marshal(block)
			if err != nil {
				t.Fatal(err)
			}
			var st specTopology
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			out[at] = st.config(t)
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", at, i), e)
			}
		}
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc any
		if json.Unmarshal(data, &doc) == nil {
			walk(filepath.ToSlash(path), doc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMinFabricDelayMatchesBuiltFabric: the teardown lag a run derives
// from its description is the minimum delay over the inter-switch ports
// New actually builds — for every checked-in spec's topology, and for a
// leaf-spine whose overrides cover every pair (so FabricLink is wired
// nowhere) with one pair overridden twice, the later winning.
func TestMinFabricDelayMatchesBuiltFabric(t *testing.T) {
	cases := checkedInTopologies(t)
	if len(cases) < 30 {
		t.Fatalf("found %d checked-in spec topologies, want the presets, examples, golden specs and benchmark workloads", len(cases))
	}
	over := testConfig()
	over.FabricLink.Delay = units.Microsecond
	for l := 0; l < over.Leaves; l++ {
		for s := 0; s < over.Spines; s++ {
			delay := units.Time(40+10*(l*over.Spines+s)) * units.Microsecond
			over.Overrides = append(over.Overrides, LinkOverride{Leaf: l, Spine: s, Link: netem.LinkConfig{Bandwidth: units.Gbps, Delay: delay}})
		}
	}
	over.Overrides[0].Link.Delay = 5 * units.Microsecond
	over.Overrides = append(over.Overrides, LinkOverride{Leaf: 0, Spine: 0, Link: netem.LinkConfig{Bandwidth: units.Gbps, Delay: 30 * units.Microsecond}})
	cases["fully overridden leaf-spine"] = over
	if got := over.MinFabricDelay(); got != 30*units.Microsecond {
		t.Errorf("fully overridden leaf-spine: MinFabricDelay %v, want the later override of leaf0-spine0, 30us", got)
	}

	for name, cfg := range cases {
		f, err := New(eventsim.New(), cfg, lb.ECMP(), eventsim.NewRNG(1), func(int, *netem.Packet) {})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, found := units.Time(0), false
		for tier, switches := range f.tiers {
			for _, n := range switches {
				ports := n.up
				if tier > 0 { // a tier-0 switch's down ports lead to hosts
					ports = append(ports[:len(ports):len(ports)], n.down...)
				}
				for _, p := range ports {
					if d := p.Link().Delay; !found || d < want {
						want, found = d, true
					}
				}
			}
		}
		if got := cfg.MinFabricDelay(); got != want {
			t.Errorf("%s: MinFabricDelay %v, built fabric's inter-switch minimum %v", name, got, want)
		}
	}
}
