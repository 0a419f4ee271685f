package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// wallClockFuncs are the time-package functions that read or depend on
// the wall clock. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Sleep": true}

// checkPackage runs every analyzer over one package. Test packages
// (p.test) only run the rules ruleTable enforces in tests: wall-clock,
// map order, float equality and unit handling are legitimate in test
// harnesses, while ownership and global-rand bugs are not.
func (l *linter) checkPackage(p *pkg) {
	sim := isSimPackage(strings.TrimSuffix(p.path, "_test"))
	on := func(rule string) bool { return !p.test || ruleTable[rule] }
	for _, f := range p.files {
		if on("noglobalrand") {
			l.checkImports(p, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sim && on("nowallclock") {
					l.checkWallClock(p, n)
				}
			case *ast.RangeStmt:
				if sim && on("maporder") {
					l.checkMapOrder(p, n)
				}
			case *ast.BinaryExpr:
				if sim && on("floateq") {
					l.checkFloatEq(p, n)
				}
			case *ast.CallExpr:
				if sim && on("unitliteral") {
					l.checkUnitLiteral(p, n)
				}
			}
			return true
		})
		if on("packetown") {
			l.checkPacketOwn(p, f)
		}
	}
}

// checkImports enforces noglobalrand: math/rand and math/rand/v2 are
// banned module-wide — harness included — except in eventsim/rng.go,
// the one file allowed to mention them (its doc comment explains why
// the simulator rolls its own generator). Stochastic code must take an
// explicitly seeded *eventsim.RNG instead.
func (l *linter) checkImports(p *pkg, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		pos := sharedFset.Position(imp.Pos())
		if filepath.Base(pos.Filename) == "rng.go" && strings.HasSuffix(p.path, "/eventsim") {
			continue
		}
		l.report(pos, "noglobalrand",
			fmt.Sprintf("import of %s is forbidden (only eventsim/rng.go may); take an explicitly seeded *eventsim.RNG instead", path))
	}
}

// checkWallClock enforces nowallclock: any use (call or value) of
// time.Now, time.Since or time.Sleep inside a simulation package.
func (l *linter) checkWallClock(p *pkg, sel *ast.SelectorExpr) {
	if !wallClockFuncs[sel.Sel.Name] {
		return
	}
	fn, ok := p.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	l.report(sharedFset.Position(sel.Pos()), "nowallclock",
		fmt.Sprintf("time.%s reads the wall clock; simulation code must use the simulated clock (eventsim.Sim.Now / timers)", sel.Sel.Name))
}

// checkMapOrder enforces maporder: for-range over a map type in a
// simulation package. Go randomizes map iteration order on every
// iteration, so any such loop is a nondeterminism hazard unless the
// body is provably order-free — which the author must assert with an
// allow annotation, or avoid by iterating sorted keys.
func (l *linter) checkMapOrder(p *pkg, rs *ast.RangeStmt) {
	t := p.info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	l.report(sharedFset.Position(rs.Pos()), "maporder",
		fmt.Sprintf("range over map %s iterates in randomized order; iterate sorted keys or annotate //simlint:allow maporder(reason)", t))
}

// checkFloatEq enforces floateq: ==/!= where both operands are
// floating-point. Exact float equality is almost always a latent bug
// (EWMA updates, model solvers); the rare intentional exact check
// (division-by-zero guards, sentinel values) must be annotated.
func (l *linter) checkFloatEq(p *pkg, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isFloat(p.info.TypeOf(be.X)) || !isFloat(p.info.TypeOf(be.Y)) {
		return
	}
	l.report(sharedFset.Position(be.Pos()), "floateq",
		fmt.Sprintf("floating-point %s comparison; compare with an epsilon or restructure (annotate //simlint:allow floateq(reason) if exactness is intended)", be.Op))
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkUnitLiteral enforces unitliteral: an untyped non-zero numeric
// literal passed directly to a parameter typed units.Time,
// units.Bandwidth or units.Bytes. Such a literal silently acquires the
// unit of the parameter — `After(500, ...)` is 500 nanoseconds, almost
// never what was meant — so values must be built from the named
// constants (500*units.Microsecond, 64*units.KiB, ...). Explicit
// conversions like units.Time(x) are deliberate and stay legal.
func (l *linter) checkUnitLiteral(p *pkg, call *ast.CallExpr) {
	tv, ok := p.info.Types[call.Fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		lit := numericLiteral(arg)
		if lit == nil {
			continue
		}
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		name, ok := unitTypeName(pt)
		if !ok {
			continue
		}
		if v := p.info.Types[lit].Value; v != nil && constant.Sign(v) == 0 {
			continue // zero is unit-free
		}
		l.report(sharedFset.Position(arg.Pos()), "unitliteral",
			fmt.Sprintf("untyped literal %s passed as %s; build the value from named constants (e.g. 10*units.Microsecond, 64*units.KiB)", lit.Value, name))
	}
}

// numericLiteral unwraps parentheses and unary +/- and returns the
// numeric basic literal underneath, or nil.
func numericLiteral(e ast.Expr) *ast.BasicLit {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB && x.Op != token.ADD {
				return nil
			}
			e = x.X
		case *ast.BasicLit:
			if x.Kind == token.INT || x.Kind == token.FLOAT {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// paramType returns the type of parameter i of sig, accounting for
// variadics called without an explicit ellipsis.
func paramType(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 && !hasEllipsis {
		return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// unitTypeName reports whether t is one of the guarded unit types and
// returns its display name.
func unitTypeName(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "units" {
		return "", false
	}
	switch obj.Name() {
	case "Time", "Bandwidth", "Bytes":
		return "units." + obj.Name(), true
	}
	return "", false
}
