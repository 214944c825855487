package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// chain builds packages a ← b ← c (c imports b imports a) plus an
// independent d, for wave and fact-flow tests.
func chainPkgs(t *testing.T) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	a := checkSrc(t, fset, "chain/a", `package a; func F() {}`, nil)
	b := checkSrc(t, fset, "chain/b", `package b; import "chain/a"; func F() { a.F() }`,
		map[string]*types.Package{"chain/a": a.Pkg})
	c := checkSrc(t, fset, "chain/c", `package c; import "chain/b"; func F() { b.F() }`,
		map[string]*types.Package{"chain/a": a.Pkg, "chain/b": b.Pkg})
	d := checkSrc(t, fset, "chain/d", `package d; func F() {}`, nil)
	// Deliberately scrambled input order: Waves must sort it out.
	return []*Package{c, d, a, b}
}

func TestWaves(t *testing.T) {
	waves := Waves(chainPkgs(t))
	var got [][]string
	for _, w := range waves {
		var paths []string
		for _, p := range w {
			paths = append(paths, p.ImportPath)
		}
		got = append(got, paths)
	}
	want := [][]string{{"chain/a", "chain/d"}, {"chain/b"}, {"chain/c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("waves = %v, want %v", got, want)
	}
}

func TestExpand(t *testing.T) {
	base := &Analyzer{Name: "base", Run: func(*Pass) (interface{}, error) { return nil, nil }}
	mid := &Analyzer{Name: "mid", Requires: []*Analyzer{base}, Run: base.Run}
	top := &Analyzer{Name: "top", Requires: []*Analyzer{mid, base}, Run: base.Run}

	var names []string
	for _, a := range Expand([]*Analyzer{top}) {
		names = append(names, a.Name)
	}
	if want := []string{"base", "mid", "top"}; !reflect.DeepEqual(names, want) {
		t.Errorf("Expand order = %v, want %v", names, want)
	}
}

// markEveryFunc reports one finding per package-level function and
// exports a noteFact naming the package.
func markEveryFunc(name string) *Analyzer {
	var a *Analyzer
	a = &Analyzer{
		Name:      name,
		FactTypes: []Fact{(*noteFact)(nil)},
		Run: func(pass *Pass) (interface{}, error) {
			scope := pass.Pkg.Scope()
			for _, n := range scope.Names() {
				if fn, ok := scope.Lookup(n).(*types.Func); ok {
					pass.Reportf(fn.Pos(), "func "+n+" in "+pass.Pkg.Path())
					pass.ExportObjectFact(fn, &noteFact{Note: pass.Pkg.Path() + "." + n})
				}
			}
			return nil, nil
		},
	}
	return a
}

func TestRunGraphDeterministicAcrossParallelism(t *testing.T) {
	serial, _, err := RunGraph(chainPkgs(t), []*Analyzer{markEveryFunc("mark")}, GraphOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 {
		t.Fatalf("want 4 findings, got %d", len(serial))
	}
	for trial := 0; trial < 5; trial++ {
		par, _, err := RunGraph(chainPkgs(t), []*Analyzer{markEveryFunc("mark")}, GraphOptions{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Positions differ between fresh filesets, so compare the stable
		// parts: analyzer, message, order.
		for i := range serial {
			if par[i].Message != serial[i].Message || par[i].Analyzer != serial[i].Analyzer {
				t.Fatalf("trial %d: finding %d differs: %+v vs %+v", trial, i, par[i], serial[i])
			}
		}
	}
}

// readDepFacts reports, for each import, the fact its dependency's F
// carries — proving facts flow down waves.
func readDepFacts() *Analyzer {
	producer := markEveryFunc("producer")
	return &Analyzer{
		Name:     "reader",
		Requires: []*Analyzer{producer},
		Run: func(pass *Pass) (interface{}, error) {
			for _, imp := range pass.Pkg.Imports() {
				fn, ok := imp.Scope().Lookup("F").(*types.Func)
				if !ok {
					continue
				}
				var nf noteFact
				if pass.ImportObjectFact(fn, &nf) {
					pass.Reportf(pass.Files[0].Pos(), fmt.Sprintf("%s sees %s", pass.Pkg.Path(), nf.Note))
				}
			}
			return nil, nil
		},
	}
}

func TestRunGraphFactFlow(t *testing.T) {
	findings, store, err := RunGraph(chainPkgs(t), []*Analyzer{readDepFacts()}, GraphOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reads []string
	for _, f := range findings {
		if f.Analyzer == "reader" {
			reads = append(reads, f.Message)
		}
	}
	want := []string{"chain/b sees chain/a.F", "chain/c sees chain/b.F"}
	// Findings are position-sorted; extract and compare as sets via sort
	// stability of two elements.
	if len(reads) != 2 || !(contains(reads, want[0]) && contains(reads, want[1])) {
		t.Errorf("fact-flow findings = %v, want %v", reads, want)
	}
	// The returned store holds every exported fact.
	var nf noteFact
	if !store.lookup("chain/a", "F", &nf) || nf.Note != "chain/a.F" {
		t.Errorf("store missing chain/a fact: %+v", nf)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func TestRunGraphSuppression(t *testing.T) {
	fset := token.NewFileSet()
	pkg := checkSrc(t, fset, "sup/p", `package p

//lint:allow mark -- justified in the fixture
func F() {}

func G() {}
`, nil)

	def, _, err := RunGraph([]*Package{pkg}, []*Analyzer{markEveryFunc("mark")}, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 1 || !strings.Contains(def[0].Message, "func G") {
		t.Errorf("suppressed finding leaked: %+v", def)
	}

	all, _, err := RunGraph([]*Package{pkg}, []*Analyzer{markEveryFunc("mark")}, GraphOptions{IncludeSuppressed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("IncludeSuppressed should keep both, got %d", len(all))
	}
	bySuppressed := map[bool]int{}
	for _, f := range all {
		bySuppressed[f.Suppressed]++
	}
	if bySuppressed[true] != 1 || bySuppressed[false] != 1 {
		t.Errorf("suppressed flags wrong: %+v", all)
	}
}
