package lb

import (
	"strings"
	"testing"

	"tlb/internal/units"
)

func testEnv() Env {
	return Env{
		FabricBandwidth: units.Gbps,
		BaseRTT:         100 * units.Microsecond,
		QueueCapacity:   256,
		ECNThreshold:    65,
	}
}

func TestNamesCoverBaselines(t *testing.T) {
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range []string{"ecmp", "rps", "presto", "letflow", "drill",
		"flowbender", "conga", "hermes", "wcmp"} {
		if !got[want] {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
}

func TestBuildProducesWorkingFactories(t *testing.T) {
	for _, name := range Names() {
		f, err := Build(name, nil, "scheme.params", testEnv())
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if f == nil {
			t.Fatalf("Build(%s): nil factory", name)
		}
	}
}

func TestBuildUnknownSchemeListsValid(t *testing.T) {
	_, err := Build("nope", nil, "scheme.params", testEnv())
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, want := range []string{"ecmp", "letflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestBuildAggregatesErrors(t *testing.T) {
	_, err := Build("letflow", map[string]any{
		"gap":  "10lightyears",
		"nope": 1,
	}, "scheme.params", testEnv())
	if err == nil {
		t.Fatal("bad args accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "scheme.params.gap") {
		t.Errorf("missing gap location in %q", msg)
	}
	if !strings.Contains(msg, "scheme.params.nope") || !strings.Contains(msg, "gap") {
		t.Errorf("unknown-param error should name the valid params: %q", msg)
	}
}

// TestArgsTypedAccessors: Decode turns each kind's raw form — unit
// strings, JSON numbers, bools, enum strings — into the typed value the
// accessors return, and fills an absent parameter from its declaration.
func TestArgsTypedAccessors(t *testing.T) {
	reg := Registration{Name: "t", Params: []Param{
		{Name: "n", Default: 7, Min: -1},
		{Name: "gap", Default: LetFlowGap, Min: 1},
		{Name: "cell", Default: PrestoCell, Min: 1},
		{Name: "on", Default: false},
		{Name: "s", Default: "a", OneOf: []string{"a", "hello"}},
		{Name: "missing", Default: 7},
	}}
	a, err := reg.Decode(map[string]any{
		"n":    float64(3), // the type encoding/json produces
		"gap":  "15ms",
		"cell": "1KiB",
		"on":   true,
		"s":    "hello",
	}, "p")
	if err != nil {
		t.Fatalf("unexpected errors: %v", err)
	}
	if got := a.Int("n"); got != 3 {
		t.Errorf("Int = %d", got)
	}
	if got := a.Duration("gap"); got != 15*units.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := a.Bytes("cell"); got != units.KiB {
		t.Errorf("Bytes = %v", got)
	}
	if !a.Bool("on") || a.String("s") != "hello" {
		t.Error("Bool/String accessors")
	}
	// Absent keys fall back to the declared default.
	if got := a.Int("missing"); got != 7 {
		t.Errorf("default = %d", got)
	}
	// Type and range errors, each at its path, all in one pass.
	_, err = reg.Decode(map[string]any{
		"n":    2.5,    // non-integral
		"gap":  "0us",  // below Min
		"cell": 65536,  // a size is a unit string
		"on":   "true", // a bool is a bool
		"s":    "b",    // outside OneOf
	}, "p")
	if err == nil {
		t.Fatal("bad arguments accepted")
	}
	for _, want := range []string{
		"p.n: want an integer, got 2.5",
		"p.gap: must be positive, got 0ns",
		"p.cell: want a size string",
		"p.on: want true or false",
		`p.s: unknown value "b" (valid: a, hello)`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("errors lack %q:\n%v", want, err)
		}
	}
	if _, err := reg.Decode(map[string]any{"n": -2}, "p"); err == nil || !strings.Contains(err.Error(), "p.n: must be at least -1, got -2") {
		t.Errorf("n = -2: %v", err)
	}
}

// TestDeclaredDefaultsAreValid: every registered parameter's default
// passes the range check a spec's value would have to, and renders.
func TestDeclaredDefaultsAreValid(t *testing.T) {
	for _, name := range Names() {
		reg, _ := Lookup(name)
		for _, p := range reg.Params {
			if err := p.check(p.Default); err != nil {
				t.Errorf("%s.%s: default %v: %v", name, p.Name, p.Default, err)
			}
			if p.Doc == "" || !strings.Contains(p.Describe(), "(default "+format(p.Default)+")") {
				t.Errorf("%s.%s: Describe() = %q", name, p.Name, p.Describe())
			}
		}
	}
}

// TestBuildRejectsOutOfRange: a parameter outside its declared range
// is an error at its path, not a silently substituted default.
func TestBuildRejectsOutOfRange(t *testing.T) {
	for _, gap := range []string{"-5us", "0us"} {
		_, err := Build("letflow", map[string]any{"gap": gap}, "scheme.params", testEnv())
		if err == nil || !strings.HasPrefix(err.Error(), "scheme.params.gap: must be positive, got ") {
			t.Errorf("gap %s: %v", gap, err)
		}
	}
	// Parameters that stopped being parameters are unknown names.
	_, err := Build("drill", map[string]any{"d": -3}, "scheme.params", testEnv())
	if err == nil || !strings.Contains(err.Error(), `scheme.params.d: scheme "drill" takes no parameters`) {
		t.Errorf("drill.d: %v", err)
	}
}
