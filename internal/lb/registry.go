// Scheme registry: the single place balancer names live. Every scheme
// — the lb baselines here and TLB in internal/core — registers a name,
// a parameter schema and a builder; cmd/tlbsim enumerates the registry
// for -list-schemes, and the spec layer (internal/spec) builds
// factories through it so scheme names and parameters are data, not
// code.
package lb

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tlb/internal/units"
)

// Param declares one scheme parameter, once: its name, what it is, the
// value it takes when a spec does not set it, and the values a spec may
// set. Build decodes, range-checks and defaults from this declaration
// and -list-schemes renders it, so a builder reads already-valid values
// and no default is written anywhere else.
type Param struct {
	Name string
	// Doc says what the parameter is; Describe appends the default.
	Doc string
	// Default is the value of an absent parameter. Its Go type is the
	// parameter's kind: units.Time (a duration string like "150us"),
	// units.Bytes (a size string like "64KiB"), int, bool or string.
	Default any
	// Min is the smallest valid value of a duration, bytes or int
	// parameter, in its base unit (ns, bytes, count).
	Min int64
	// OneOf lists the valid values of a string parameter.
	OneOf []string
}

// Kind names the parameter's type for -list-schemes.
func (p Param) Kind() string {
	switch p.Default.(type) {
	case units.Time:
		return "duration"
	case units.Bytes:
		return "bytes"
	case int:
		return "int"
	case bool:
		return "bool"
	case string:
		return "string"
	}
	panic(fmt.Sprintf("lb: parameter %q: unsupported default type %T", p.Name, p.Default))
}

// Describe is the parameter's -list-schemes text: its doc line with the
// valid strings and the default rendered from the declaration.
func (p Param) Describe() string {
	if len(p.OneOf) > 0 {
		return fmt.Sprintf("%s: %s (default %s)", p.Doc, strings.Join(p.OneOf, ", "), format(p.Default))
	}
	return fmt.Sprintf("%s (default %s)", p.Doc, format(p.Default))
}

// format renders a parameter value the way a spec writes it.
func format(v any) string {
	switch x := v.(type) {
	case units.Time:
		return units.FormatTime(x)
	case units.Bytes:
		return units.FormatBytes(x)
	}
	return fmt.Sprint(v)
}

// decode converts a raw argument — a spec's unit string, bool or
// number (encoding/json produces float64; Go callers pass int) — to the
// parameter's kind and range-checks it.
func (p Param) decode(raw any) (v any, err error) {
	switch p.Default.(type) {
	case units.Time:
		var s string
		if s, err = typed[string](raw, `a duration string like "150us"`); err == nil {
			v, err = units.ParseTime(s)
		}
	case units.Bytes:
		var s string
		if s, err = typed[string](raw, `a size string like "64KiB"`); err == nil {
			v, err = units.ParseBytes(s)
		}
	case int:
		//simlint:allow floateq(integrality check on a decoded JSON number; exact comparison is the intent)
		if f, ok := raw.(float64); ok && f == float64(int(f)) {
			raw = int(f)
		}
		v, err = typed[int](raw, "an integer")
	case bool:
		v, err = typed[bool](raw, "true or false")
	case string:
		v, err = typed[string](raw, "a string")
	}
	if err != nil {
		return nil, err
	}
	return v, p.check(v)
}

// typed asserts a raw argument to its kind's Go type.
func typed[T any](raw any, want string) (T, error) {
	v, ok := raw.(T)
	if !ok {
		return v, fmt.Errorf("want %s, got %v", want, raw)
	}
	return v, nil
}

// check reports a value of the parameter's kind outside its range.
func (p Param) check(v any) error {
	var n int64
	switch x := v.(type) {
	case units.Time:
		n = int64(x)
	case units.Bytes:
		n = int64(x)
	case int:
		n = int64(x)
	case string:
		if !slices.Contains(p.OneOf, x) {
			return fmt.Errorf("unknown value %q (valid: %s)", x, strings.Join(p.OneOf, ", "))
		}
		return nil
	default:
		return nil
	}
	switch {
	case n >= p.Min:
		return nil
	case p.Min == 1:
		return fmt.Errorf("must be positive, got %s", format(v))
	case p.Min == 0:
		return fmt.Errorf("must not be negative, got %s", format(v))
	}
	return fmt.Errorf("must be at least %d, got %s", p.Min, format(v))
}

// Env is the derived context of a run that a scheme builder may read —
// facts of the fabric, never something a spec sets per scheme. TLB's
// model takes its link rate C, RTT and q_th cap from here (and the
// transport's MSS, header size and W_L from the transport package,
// which every run shares); FlowBender mirrors the queue's ECN
// threshold.
type Env struct {
	// FabricBandwidth is the default leaf-spine link rate.
	FabricBandwidth units.Bandwidth
	// BaseRTT is the fabric round-trip propagation delay.
	BaseRTT units.Time
	// QueueCapacity is the per-queue buffer size in packets (0:
	// unbounded).
	QueueCapacity int
	// ECNThreshold is the queue marking threshold in packets (0: no
	// marking).
	ECNThreshold int
}

// Builder constructs a scheme's Factory from its decoded arguments and
// the run's environment.
type Builder func(a Args, env Env) Factory

// Registration describes one scheme.
type Registration struct {
	// Name is the canonical scheme name ("ecmp", "tlb", ...).
	Name string
	// Doc is a one-line description for -list-schemes.
	Doc string
	// Params is the scheme's parameter schema; Build rejects argument
	// names outside it.
	Params []Param
	// Build constructs the factory.
	Build Builder
}

var registry = map[string]Registration{}

// Register adds a scheme to the registry. It panics on a duplicate or
// empty name — registration happens in package init, where a panic is
// a build-time error.
func Register(r Registration) {
	if r.Name == "" || r.Build == nil {
		panic("lb: Register needs a name and a builder")
	}
	if _, dup := registry[r.Name]; dup {
		panic("lb: duplicate scheme registration: " + r.Name)
	}
	for _, p := range r.Params {
		p.Kind() // panics on a default whose type is no parameter kind
	}
	registry[r.Name] = r
}

// Names returns every registered scheme name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	//simlint:allow maporder(keys are collected here and sorted below before any use)
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns a scheme's registration.
func Lookup(name string) (Registration, bool) {
	r, ok := registry[name]
	return r, ok
}

// Build constructs the named scheme's factory from raw arguments
// (typically unmarshalled spec params). path prefixes error locations,
// e.g. "scheme.params". All problems — unknown scheme, unknown
// parameter names, type and range errors — are reported together.
func Build(name string, args map[string]any, path string, env Env) (Factory, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	a, err := reg.Decode(args, path)
	if err != nil {
		return nil, err
	}
	return reg.Build(a, env), nil
}

// Args are a scheme's decoded arguments: every declared parameter by
// name, at its kind's Go type, inside its range — the set value or the
// declared default. The accessors panic on a name or kind the scheme
// did not declare, which is a bug in its builder.
type Args map[string]any

// Duration reads a duration parameter.
func (a Args) Duration(name string) units.Time { return a[name].(units.Time) }

// Bytes reads a size parameter.
func (a Args) Bytes(name string) units.Bytes { return a[name].(units.Bytes) }

// Int reads an integer parameter.
func (a Args) Int(name string) int { return a[name].(int) }

// Bool reads a boolean parameter.
func (a Args) Bool(name string) bool { return a[name].(bool) }

// String reads a string parameter.
func (a Args) String(name string) string { return a[name].(string) }

// Decode checks raw arguments against the scheme's declarations and
// fills in the defaults, accumulating every problem — one line each,
// located as path.name — instead of failing on the first.
func (r Registration) Decode(raw map[string]any, path string) (Args, error) {
	a := make(Args, len(r.Params))
	for _, p := range r.Params {
		a[p.Name] = p.Default
	}
	keys := make([]string, 0, len(raw))
	//simlint:allow maporder(keys are collected here and sorted below before any use)
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []string
	for _, k := range keys {
		var err error
		if i := slices.IndexFunc(r.Params, func(p Param) bool { return p.Name == k }); i < 0 {
			err = r.unknownParam()
		} else {
			a[k], err = r.Params[i].decode(raw[k])
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s.%s: %v", path, k, err))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return a, nil
}

func (r Registration) unknownParam() error {
	if len(r.Params) == 0 {
		return fmt.Errorf("scheme %q takes no parameters", r.Name)
	}
	valid := make([]string, len(r.Params))
	for i, p := range r.Params {
		valid[i] = p.Name
	}
	return fmt.Errorf("unknown parameter for scheme %q (valid: %s)", r.Name, strings.Join(valid, ", "))
}
