// Package wallclockboundary keeps simulation packages on their side of
// the sim/wall-clock seam: they must not import the live observability
// plane (repro/internal/obs/serve) or real networking (net, net/http/...).
//
// The reproduction's layering puts everything nondeterministic — HTTP
// serving, real sockets, pprof — on the wall-clock side, wired up by
// cmd/* binaries through read hooks. The dependency arrow points one way:
// serve reads simulation state (obs.Accumulator.State), simulation code
// never calls out to serve. If a simulation package imported net/http,
// real I/O and its scheduling could leak into code whose results must be
// a pure function of (seed, config), and the package would stop building
// in environments without network stacks. This analyzer makes the arrow
// mechanical, the import-graph complement of simdeterminism's ban on
// wall-clock reads.
//
// Since phantomlint v2 the ban is transitive: every repro/internal
// package that links the wall-clock side — directly or through its own
// imports — exports a NetFact package fact recording the shortest import
// chain, and a simulation package importing any fact-carrying package is
// flagged with that chain. Without this, one helper package importing
// net would launder the boundary for everyone who imports the helper.
//
// Out of scope for reporting: everything outside repro/internal/* (cmd/*
// and examples/* own the wall-clock side), repro/internal/bench
// (harness), and repro/internal/analysis (the linter itself).
// repro/internal/obs/serve is the one internal package that lives on the
// wall-clock side by charter, so it is exempt — and everything else is
// banned from importing it, which keeps the exemption from spreading.
// Facts, by contrast, are computed for ALL repro/internal packages,
// exempt ones included: that is exactly where boundary-crossing helpers
// live.
package wallclockboundary

import (
	"fmt"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// NetFact marks a package that links the wall-clock side, with the
// import chain that gets there (e.g. "repro/internal/bench/netprobe →
// net").
type NetFact struct {
	Via string `json:"via"`
}

// AFact marks NetFact as an analysis fact.
func (*NetFact) AFact() {}

// Analyzer is the wallclockboundary check.
var Analyzer = &analysis.Analyzer{
	Name: "wallclockboundary",
	Doc: "ban sim packages from importing the observability plane or real networking " +
		"(repro/internal/obs/serve, net, net/http/...), directly or transitively; " +
		"serving belongs on the wall-clock side",
	FactTypes: []analysis.Fact{(*NetFact)(nil)},
	Run:       run,
}

// servePkg is the wall-clock-side observability plane.
const servePkg = "repro/internal/obs/serve"

// allowedPrefixes exempt whole package subtrees from reporting (facts
// are still computed for them).
var allowedPrefixes = []string{
	"repro/internal/bench",
	"repro/internal/analysis",
	servePkg,
}

// scoped reports whether findings apply to the package at path.
func scoped(path string) bool {
	if !strings.HasPrefix(path, "repro/internal/") {
		return false
	}
	for _, p := range allowedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return false
		}
	}
	return true
}

// banned explains why an import path is off-limits for simulation code,
// or returns "" when it is fine.
func banned(path string) string {
	switch {
	case path == servePkg:
		return "the observability plane reads simulation state, never the reverse"
	case path == "net", path == "net/http", strings.HasPrefix(path, "net/http/"):
		return "real networking is nondeterministic"
	}
	return ""
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, "repro/internal/") {
		return nil, nil
	}
	report := scoped(path)
	via := "" // shortest chain to the wall-clock side, first import wins
	for _, f := range pass.Files {
		// Defensive: the standalone driver never loads _test.go files, but
		// fixture harnesses could.
		if name := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			impPath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// A justified //lint:allow on the import is a sanitizer: it
			// neither reports nor exports the taint onward.
			if pass.Allowed("wallclockboundary", imp.Pos()) {
				continue
			}
			if why := banned(impPath); why != "" {
				if via == "" {
					via = impPath
				}
				if report {
					pass.Reportf(imp.Pos(), fmt.Sprintf(
						"import %s crosses the sim/wall-clock boundary (%s): keep serving in cmd/ or %s",
						impPath, why, servePkg))
				}
				continue
			}
			// Transitive: an internal dependency that carries a NetFact
			// links the wall-clock side for everyone importing it.
			if strings.HasPrefix(impPath, "repro/internal/") {
				dep := importOf(pass.Pkg, impPath)
				var fact NetFact
				if dep == nil || !pass.ImportPackageFact(dep, &fact) {
					continue
				}
				chain := impPath + " → " + fact.Via
				if via == "" {
					via = chain
				}
				if report {
					pass.Reportf(imp.Pos(), fmt.Sprintf(
						"import %s transitively links the wall-clock side (%s): keep serving in cmd/ or %s",
						impPath, chain, servePkg))
				}
			}
		}
	}
	if via != "" {
		pass.ExportPackageFact(&NetFact{Via: via})
	}
	return nil, nil
}

// importOf finds the types.Package for path among the package's direct
// imports.
func importOf(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}
