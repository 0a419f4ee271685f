package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
)

// pkg is one loaded-and-type-checked package of the module under lint.
//
// Test files are loaded as separate pkg values (test=true) so the
// per-rule test exemptions can apply: an in-package test pkg carries
// the base files in allFiles (the type checker needs them) but only
// the _test.go files in files (what the analyzers visit), and an
// external _test package carries just its own files in both.
type pkg struct {
	path     string      // import path, e.g. "tlb/internal/core"
	files    []*ast.File // files the analyzers run over
	allFiles []*ast.File // files the type checker saw (files plus, for in-package tests, the base files)
	info     *types.Info
	test     bool // _test.go variant: per-rule exemptions apply
}

// The file set and stdlib importer are shared across Run calls so that
// repeated runs in one process (the analyzer tests re-lint the repo
// many times) type-check the standard library only once. FileSets are
// append-only, and the source importer memoizes checked packages.
var (
	sharedFset  = token.NewFileSet()
	stdImporter = importer.ForCompiler(sharedFset, "source", nil)
)

// moduleImporter resolves module packages from those already checked
// and everything else (the standard library) through the shared source
// importer. The module is kept dependency-free on purpose, so "not
// module, not stdlib" cannot occur.
type moduleImporter map[string]*types.Package

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return stdImporter.Import(path)
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath, Dir                    string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// listModule asks the go command for the module's packages: exactly the
// file sets `go build` and `go vet` see (build constraints, GOFLAGS and
// testdata/_/. exclusions applied), every package after its
// dependencies. -e keeps a package whose embed patterns match nothing;
// parse and type errors still surface when the files are checked.
func listModule(root string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-json=ImportPath,Dir,Standard,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("lint: go list in %s: %w", root, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if !lp.Standard {
			pkgs = append(pkgs, lp)
		}
	}
}

// loadModule parses and type-checks every package of the module rooted
// at root in the order go list prints them, then loads the _test.go
// files in a second pass: in-package test files are type-checked
// together with their base files, external _test packages on their
// own. Fixture modules under testdata stay excluded: they are other
// modules entirely.
func loadModule(root string) ([]*pkg, error) {
	listed, err := listModule(root)
	if err != nil {
		return nil, err
	}
	imp := moduleImporter{}
	var out []*pkg
	// check parses the named files of dir and type-checks them as path,
	// after base: the files an in-package test extends.
	check := func(path, dir string, names []string, base []*ast.File, test bool) ([]*ast.File, error) {
		files, err := parseFiles(dir, names)
		if err != nil || len(files) == 0 {
			return nil, err
		}
		p := &pkg{path: path, files: files, allFiles: slices.Concat(base, files), info: newInfo(), test: test}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, sharedFset, p.allFiles, p.info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		if !test {
			imp[path] = tpkg
		}
		out = append(out, p)
		return files, nil
	}

	base := make(map[string][]*ast.File, len(listed))
	for _, lp := range listed {
		if base[lp.ImportPath], err = check(lp.ImportPath, lp.Dir, lp.GoFiles, nil, false); err != nil {
			return nil, err
		}
	}
	// Every non-test package is checked by now, so test files may
	// import anything in the module.
	for _, lp := range listed {
		if _, err := check(lp.ImportPath, lp.Dir, lp.TestGoFiles, base[lp.ImportPath], true); err != nil {
			return nil, err
		}
		if _, err := check(lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles, nil, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseFiles parses the named files of dir, comments included.
func parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
