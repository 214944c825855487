// Package load turns `go list` package patterns into type-checked
// analysis.Packages using only the standard library: `go list -deps
// -export` enumerates the packages with their dependencies, go/parser
// parses the module's packages, and go/types checks them in dependency
// order. Standard-library imports are read from the compiler's export
// data; module imports are served from the packages already checked.
//
// This is the offline stand-in for golang.org/x/tools/go/packages, which
// the module cannot vendor. Every package is type-checked at most once per
// Packages call, so every import of a given path yields the identical
// *types.Package.
package load

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
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/analysis"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string // compiled export data (standard library only)
	Standard   bool
	DepOnly    bool // a dependency the patterns did not match
}

// Packages loads, parses and type-checks the packages matched by patterns
// (e.g. "./..."), resolving them relative to dir. Only non-test Go files
// are analyzed: the determinism and tracing invariants govern simulation
// code, and tests legitimately use wall-clock timeouts and ad-hoc output.
func Packages(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	var withFiles []listedPackage
	for _, lp := range listed {
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
		} else if len(lp.GoFiles) > 0 {
			withFiles = append(withFiles, lp)
		}
	}

	// Parsing is embarrassingly parallel (token.FileSet serializes its own
	// file registration); type-checking stays serial below because each
	// package needs its imports checked first.
	parsed := make([][]*ast.File, len(withFiles))
	errs := make([]error, len(withFiles))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, lp := range withFiles {
		wg.Add(1)
		go func(i int, lp listedPackage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parsed[i], errs[i] = parsePackage(fset, lp)
		}(i, lp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	std := exportImporter(fset, exports)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*analysis.Package
	// go list -deps lists every package after its dependencies.
	for i, lp := range withFiles {
		pkg, err := check(fset, imp, lp, parsed[i])
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Pkg
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// Importer returns an importer that reads compiled export data for the
// packages at the given import paths and everything they depend on, as
// `go list -deps -export` reports them when run in dir. The analyzer test
// harness resolves fixtures' standard-library and module imports this way.
func Importer(fset *token.FileSet, dir string, paths ...string) (types.Importer, error) {
	exports := make(map[string]string)
	if len(paths) > 0 {
		listed, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exportImporter(fset, exports), nil
}

// exportImporter reads each package from the export data file exports
// names for its import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(exports[path])
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parsePackage parses one listed package's non-test files.
func parsePackage(fset *token.FileSet, lp listedPackage) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Name,GoFiles,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// check type-checks one parsed package against the shared importer.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage, files []*ast.File) (*analysis.Package, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", lp.ImportPath, err)
	}
	return &analysis.Package{
		ImportPath: lp.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		TypesInfo:  info,
	}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on. Shared with
// analysistest so fixture packages carry the same resolution surface as
// real ones.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
