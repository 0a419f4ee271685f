// Package lint implements simlint, the repository's custom static
// analyzer. It enforces the determinism, unit-safety and ownership
// contract that the simulator's headline guarantees — byte-identical
// figure output from a seed at any worker count and an
// allocation-free hot path — depend on:
//
//	nowallclock  no time.Now/time.Since/time.Sleep inside simulation
//	             packages; wall-clock time belongs to the harness.
//	noglobalrand no math/rand (or math/rand/v2) anywhere but
//	             eventsim/rng.go; stochastic code takes *eventsim.RNG.
//	maporder     no for-range over a map in simulation packages; Go
//	             randomizes map iteration order per iteration, so any
//	             order-sensitive sweep must iterate sorted keys.
//	floateq      no ==/!= between floating-point operands in
//	             simulation packages.
//	unitliteral  no untyped non-zero numeric literals passed directly
//	             to parameters typed units.Time/units.Bandwidth/
//	             units.Bytes; build values from the named constants.
//	packetown    *netem.Packet pool-ownership dataflow: no use of a
//	             packet after PacketPool.Put releases it, no function
//	             that both releases and returns a packet, and no
//	             retention of packets in struct fields outside the
//	             owning netem layer.
//
// Test files are analyzed too, with per-rule exemptions: wall-clock
// reads, map ranges, float equality and bare unit literals are
// legitimate in test harnesses, but ownership and global-rand bugs in
// tests corrupt what the tests measure, so noglobalrand and packetown
// stay enforced.
//
// A site that is safe on purpose can be suppressed with an annotation
// on the offending line or the line above; one directive may carry
// several rules:
//
//	//simlint:allow maporder(keys are collected and sorted before use)
//	//simlint:allow maporder(order-free) floateq(exact sentinel)
//
// The reason inside the parentheses is mandatory; an empty reason and
// an unknown rule name are themselves reported. A directive that
// suppresses nothing is reported as unusedallow, so stale suppressions
// fail the build. The file set comes from `go list`, so it is the one
// `go build` and `go vet` see; parsing and type-checking use go/parser
// and go/types (the standard library through the source importer),
// keeping the module free of third-party dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	File string // path relative to the linted module root
	Line int
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Msg)
}

// ruleTable registers every suppressible rule, mapped to whether it is
// enforced in _test.go files. The two meta diagnostics — "simlint"
// (malformed directives) and "unusedallow" (stale directives) — are
// not suppressible and live outside it.
var ruleTable = map[string]bool{
	"nowallclock":  false,
	"noglobalrand": true,
	"maporder":     false,
	"floateq":      false,
	"unitliteral":  false,
	"packetown":    true,
}

// ruleNames returns the suppressible rule names, sorted.
func ruleNames() []string {
	out := make([]string, 0, len(ruleTable))
	for r := range ruleTable {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// simPackages names the directories under internal/ whose code must be
// deterministic: everything that runs inside simulations, plus the
// report renderer and the run-control layer (sim), which routes its
// one legitimate wall-clock need through the sim.Clock seam
// (clock.go). Everything else (internal/experiments,
// cmd/, examples/) is harness: it may read the wall clock, but still
// may not use math/rand.
var simPackages = map[string]bool{
	"eventsim": true, "netem": true, "transport": true, "core": true,
	"lb": true, "model": true, "workload": true, "topology": true,
	"stats": true, "units": true, "faults": true,
	"spec": true, "sim": true, "report": true,
}

// isSimPackage reports whether the import path denotes simulation code:
// an internal package whose name is in the simPackages set.
func isSimPackage(importPath string) bool {
	segs := strings.Split(importPath, "/")
	if len(segs) < 2 {
		return false
	}
	return segs[len(segs)-2] == "internal" && simPackages[segs[len(segs)-1]]
}

// allowRe locates the start of one suppression directive; the
// rule(reason) groups that follow are parsed by allowGroupRe so a
// single directive can carry several rules. A directive must start
// its comment (`//simlint:allow ...`), which keeps doc-comment
// examples of the syntax — indented or mid-sentence — from being
// parsed as real (and then stale) suppressions.
var allowRe = regexp.MustCompile(`^//simlint:allow\s+`)

// allowGroupRe matches one rule(reason) group. Rule names are
// lowercase identifiers; the reason may not contain a closing
// parenthesis.
var allowGroupRe = regexp.MustCompile(`^([a-z]+)\(([^)]*)\)\s*`)

// directive is one parsed rule(reason) suppression group. used flips
// when the directive suppresses a finding; directives that never fire
// are themselves reported (unusedallow), so suppressions cannot go
// stale silently.
type directive struct {
	file string
	line int // line the directive text is on
	rule string
	used bool
}

// linter carries the state of one Run.
type linter struct {
	root     string
	findings []Finding
	// allowed maps file -> line -> rule -> the directive in effect on
	// that line.
	allowed    map[string]map[int]map[string]*directive
	directives []*directive
}

// Run lints the Go module rooted at root and returns all findings,
// sorted by file, line and rule. A nil slice means the module is clean.
func Run(root string) ([]Finding, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loadModule(absRoot)
	if err != nil {
		return nil, err
	}
	l := &linter{root: absRoot, allowed: make(map[string]map[int]map[string]*directive)}
	for _, p := range pkgs {
		for _, f := range p.files {
			l.collectAllows(f)
		}
	}
	for _, p := range pkgs {
		l.checkPackage(p)
	}
	for _, d := range l.directives {
		if !d.used {
			l.findings = append(l.findings, Finding{
				File: d.file, Line: d.line, Rule: "unusedallow",
				Msg: fmt.Sprintf("suppression for %q matches no finding; delete the stale directive", d.rule),
			})
		}
	}
	sort.Slice(l.findings, func(i, j int) bool {
		a, b := l.findings[i], l.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return l.findings, nil
}

// relFile converts a token position's filename to a root-relative path.
func (l *linter) relFile(pos token.Position) string {
	rel, err := filepath.Rel(l.root, pos.Filename)
	if err != nil {
		return pos.Filename
	}
	return filepath.ToSlash(rel)
}

// collectAllows records every suppression directive in the file. A
// directive covers its own line (end-of-line comment) and the next line
// (comment above the statement). One directive may carry several
// rule(reason) groups; unknown rule names and empty reasons are
// reported rather than silently suppressing nothing.
func (l *linter) collectAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, loc := range allowRe.FindAllStringIndex(c.Text, -1) {
				rest := c.Text[loc[1]:]
				pos := sharedFset.Position(c.Pos())
				file := l.relFile(pos)
				groups := 0
				for {
					m := allowGroupRe.FindStringSubmatch(rest)
					if m == nil {
						break
					}
					rest = rest[len(m[0]):]
					groups++
					rule, reason := m[1], strings.TrimSpace(m[2])
					if _, known := ruleTable[rule]; !known {
						l.report(pos, "simlint", fmt.Sprintf("allow directive names unknown rule %q (known: %s)", rule, strings.Join(ruleNames(), ", ")))
						continue
					}
					if reason == "" {
						l.report(pos, "simlint", fmt.Sprintf("allow directive for %q needs a non-empty reason", rule))
						continue
					}
					d := &directive{file: file, line: pos.Line, rule: rule}
					l.directives = append(l.directives, d)
					if l.allowed[file] == nil {
						l.allowed[file] = make(map[int]map[string]*directive)
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if l.allowed[file][line] == nil {
							l.allowed[file][line] = make(map[string]*directive)
						}
						l.allowed[file][line][rule] = d
					}
				}
				if groups == 0 {
					l.report(pos, "simlint", "malformed allow directive: expected one or more rule(reason) groups after simlint:allow")
				}
			}
		}
	}
}

// report adds a finding unless an allow directive suppresses it. The
// meta diagnostics ("simlint", "unusedallow") are not suppressible.
func (l *linter) report(pos token.Position, rule, msg string) {
	file := l.relFile(pos)
	if _, suppressible := ruleTable[rule]; suppressible {
		if d := l.allowed[file][pos.Line][rule]; d != nil {
			d.used = true
			return
		}
	}
	l.findings = append(l.findings, Finding{File: file, Line: pos.Line, Rule: rule, Msg: msg})
}
