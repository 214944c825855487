// The graph runner: dependency-ordered, wave-parallel analysis.
//
// Facts flow along import edges, so a package's analyzers may only run
// once every analyzed dependency has finished. Waves makes that order
// explicit: wave 0 holds packages importing no other analyzed package,
// wave k packages whose analyzed imports all sit in earlier waves.
// Packages within one wave cannot import each other, so RunGraph runs
// each wave's packages concurrently (bounded by GraphOptions.Parallel)
// and still presents every analyzer a fully-populated fact store for
// everything it can reach. Findings are accumulated per package and
// sorted once at the end, so the output is byte-identical for any
// parallelism level.
package analysis

import (
	"fmt"
	"sort"
	"sync"
)

// GraphOptions tunes RunGraph.
type GraphOptions struct {
	// Parallel caps concurrently analyzed packages per wave; <= 1 runs
	// serially.
	Parallel int
	// IncludeSuppressed retains //lint:allow-suppressed findings in the
	// result, marked Finding.Suppressed, instead of dropping them.
	IncludeSuppressed bool
}

// Expand returns analyzers plus their transitive Requires, deduplicated,
// in an order that runs every prerequisite before its dependents. The
// order is deterministic in the input order. Cycles panic: they are
// programming errors in the suite definition.
func Expand(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	state := make(map[*Analyzer]int) // 0 unseen, 1 visiting, 2 done
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		switch state[a] {
		case 1:
			panic(fmt.Sprintf("analysis: Requires cycle through %s", a.Name))
		case 2:
			return
		}
		state[a] = 1
		for _, r := range a.Requires {
			visit(r)
		}
		state[a] = 2
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// Waves partitions pkgs into dependency waves: every package's analyzed
// imports live in strictly earlier waves. Within a wave, packages are
// sorted by import path so scheduling is deterministic.
func Waves(pkgs []*Package) [][]*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	depth := make(map[string]int, len(pkgs))
	var depthOf func(p *Package) int
	depthOf = func(p *Package) int {
		if d, ok := depth[p.ImportPath]; ok {
			return d
		}
		// Mark before recursing: an import cycle (impossible in valid Go,
		// but be safe on broken input) bottoms out at depth 0.
		depth[p.ImportPath] = 0
		d := 0
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				if dd := depthOf(dep) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[p.ImportPath] = d
		return d
	}
	max := 0
	for _, p := range pkgs {
		if d := depthOf(p); d > max {
			max = d
		}
	}
	waves := make([][]*Package, max+1)
	for _, p := range pkgs {
		waves[depth[p.ImportPath]] = append(waves[depth[p.ImportPath]], p)
	}
	for _, w := range waves {
		sort.Slice(w, func(i, j int) bool { return w[i].ImportPath < w[j].ImportPath })
	}
	return waves
}

// RunGraph applies the analyzers (expanded with their Requires) to the
// packages in dependency-wave order, threading facts through the store,
// and returns the findings sorted by position then analyzer — the same
// bytes for any Parallel setting. The returned store holds every
// exported fact.
func RunGraph(pkgs []*Package, analyzers []*Analyzer, opts GraphOptions) ([]Finding, *Store, error) {
	expanded := Expand(analyzers)
	store := NewStore(analyzers)

	var all []Finding
	for _, wave := range Waves(pkgs) {
		parallel := opts.Parallel
		if parallel > len(wave) {
			parallel = len(wave)
		}
		if parallel <= 1 {
			for _, pkg := range wave {
				fs, err := runPackage(pkg, expanded, store)
				if err != nil {
					return nil, nil, err
				}
				all = append(all, fs...)
			}
			continue
		}
		results := make([][]Finding, len(wave))
		errs := make([]error, len(wave))
		sem := make(chan struct{}, parallel)
		var wg sync.WaitGroup
		for i, pkg := range wave {
			wg.Add(1)
			go func(i int, pkg *Package) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i], errs[i] = runPackage(pkg, expanded, store)
			}(i, pkg)
		}
		wg.Wait()
		for i := range wave {
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			all = append(all, results[i]...)
		}
	}

	if !opts.IncludeSuppressed {
		kept := all[:0]
		for _, f := range all {
			if !f.Suppressed {
				kept = append(kept, f)
			}
		}
		all = kept
	}
	sortFindings(all)
	return all, store, nil
}

// runPackage applies the already-expanded analyzer sequence to one
// package, resolving suppression as findings are reported.
func runPackage(pkg *Package, expanded []*Analyzer, store *Store) ([]Finding, error) {
	allow := collectAllows(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range expanded {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			store:     store,
			allow:     allow,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			out = append(out, Finding{
				Analyzer:   name,
				Pos:        posn,
				Message:    d.Message,
				Suppressed: allow.suppressed(name, posn),
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return out, nil
}
