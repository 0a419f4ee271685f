package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sharedstate keeps concurrent runs isolated. One process runs many
// simulations at once — the sweep's worker goroutines, the serve
// layer's per-run executors — so every piece of mutable state
// reachable from two runs is a data race and a determinism leak. Three
// shapes are flagged:
//
//  1. Package-level vars in simulation packages. Immutable lookup
//     tables are fine in principle but indistinguishable from mutable
//     accumulators syntactically, so every one needs a reasoned
//     //simlint:allow sharedstate(...) asserting it is never written
//     after init.
//  2. go statements anywhere but the approved concurrency entry
//     points: internal/sim/sweep.go (the sweep runner) and
//     internal/serve/server.go (the run-submission server, whose
//     per-run executor goroutine is joined by Server.Close).
//     Scattered goroutines make determinism and shutdown impossible
//     to reason about centrally.
//  3. Writes to captured variables inside closures passed to
//     sim.RunSweep / sim.RunAll. The runner invokes these from worker
//     goroutines, so `total += x` or `seen = append(seen, p)` races.
//     Writes through an index expression (results[i] = r) stay legal:
//     per-slot writes to disjoint indices are the intended pattern.
func (l *linter) checkSharedState(p *pkg, f *ast.File, sim bool) {
	if sim {
		l.checkPackageVars(p, f)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pos := sharedFset.Position(x.Pos())
			rel := l.relFile(pos)
			if !strings.HasSuffix(rel, "sim/sweep.go") && !strings.HasSuffix(rel, "serve/server.go") {
				l.report(pos, "sharedstate",
					"go statement outside the approved runners (sim/sweep.go, serve/server.go); route concurrency through sim.RunSweep/RunAll or the serve layer so shutdown and determinism stay centralized")
			}
		case *ast.CallExpr:
			l.checkSweepClosures(p, x)
		}
		return true
	})
}

// checkPackageVars flags package-level var declarations in simulation
// packages.
func (l *linter) checkPackageVars(p *pkg, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.Name == "_" {
					continue
				}
				l.report(sharedFset.Position(name.Pos()), "sharedstate",
					fmt.Sprintf("package-level var %s in a simulation package is shared mutable state; concurrent runs need per-run state (hang it off a struct), or annotate why it is immutable after init", name.Name))
			}
		}
	}
}

// isSweepRunner reports whether the call is sim.RunSweep or sim.RunAll.
func isSweepRunner(p *pkg, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := p.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "sim" {
		return "", false
	}
	switch fn.Name() {
	case "RunSweep", "RunAll":
		return fn.Name(), true
	}
	return "", false
}

// checkSweepClosures flags writes to captured variables inside
// function literals passed (directly or nested in a composite) to the
// sweep runner.
func (l *linter) checkSweepClosures(p *pkg, call *ast.CallExpr) {
	runner, ok := isSweepRunner(p, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			l.checkCapturedWrites(p, lit, runner)
			return true // nested literals are checked against their own extent too
		})
	}
}

// checkCapturedWrites reports assignments and ++/-- inside the literal
// whose target is a plain identifier declared outside the literal.
func (l *linter) checkCapturedWrites(p *pkg, lit *ast.FuncLit, runner string) {
	captured := func(e ast.Expr) (*types.Var, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, false
		}
		v, ok := p.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return nil, false
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil, false // the literal's own local or parameter
		}
		return v, true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				if v, ok := captured(lh); ok {
					l.report(sharedFset.Position(lh.Pos()), "sharedstate",
						fmt.Sprintf("closure passed to %s writes captured variable %s; worker goroutines race on it — write to a per-index slot or aggregate after the sweep returns", runner, v.Name()))
				}
			}
		case *ast.IncDecStmt:
			if v, ok := captured(x.X); ok {
				l.report(sharedFset.Position(x.X.Pos()), "sharedstate",
					fmt.Sprintf("closure passed to %s increments captured variable %s; worker goroutines race on it — write to a per-index slot or aggregate after the sweep returns", runner, v.Name()))
			}
		}
		return true
	})
}
