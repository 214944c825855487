// Package taint computes interprocedural nondeterminism summaries: for
// every function in an analyzed package, which scheduler- or
// wall-clock-dependent sources its call tree can reach. The summaries
// are exported as object facts (analysis.Fact) keyed by package path and
// function, so they propagate across package boundaries through the fact
// store — this is what lets a sim package calling an
// innocent-looking helper three packages away be flagged at the call
// site (detflow) instead of slipping through, the exact shape of the
// PR 7 ecdh GenerateKey laundering.
//
// The taint lattice is a set of source kinds per function (DESIGN.md
// §15): wallclock (time.Now and friends), globalrand (the shared
// math/rand stream), cryptorand (crypto/rand's process-entropy reader),
// keygen (crypto GenerateKey's randutil.MaybeReadByte draw), mapiter
// (order-leaking map iteration APIs: maps.Keys/Values/All iterators,
// reflect MapKeys/MapRange), and goorder (multi-case selects, whose
// chosen arm depends on goroutine completion order). Merging is set
// union; each kind carries one representative call chain for the
// diagnostic. Sources suppressed with //lint:allow simdeterminism (or
// detflow) are sanitizers: the justification covers the callers too, so
// the summary stays clean and suppressions don't cascade.
//
// The seam for code that must touch both sides of the sim/wall-time
// boundary — the future netsim live bridge — is explicit: a function
// marked `//lint:bridge detflow -- reason` (or any function in a package
// listed in BridgePackages) exports no taint, and detflow skips call
// sites inside it. The bridge is a charter, not a loophole: the
// directive needs a named analyzer and a reason, same as //lint:allow.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

// Kind is one nondeterminism source class in the taint lattice.
type Kind string

const (
	Wallclock  Kind = "wallclock"
	GlobalRand Kind = "globalrand"
	CryptoRand Kind = "cryptorand"
	Keygen     Kind = "keygen"
	MapIter    Kind = "mapiter"
	GoOrder    Kind = "goorder"
)

// Source is one reached nondeterminism source: its kind and a
// representative call chain ending at the root (e.g.
// "keyhelp.newKey → ecdh.GenerateKey").
type Source struct {
	Kind  Kind   `json:"kind"`
	Chain string `json:"chain"`
}

// FuncTaint is the object fact exported for every function whose call
// tree reaches at least one nondeterminism source. Sources are sorted by
// kind, so everything derived from them is deterministic.
type FuncTaint struct {
	Sources []Source `json:"sources"`
}

// AFact marks FuncTaint as an analysis fact.
func (*FuncTaint) AFact() {}

// Kinds returns the fact's kinds in sorted order.
func (t *FuncTaint) Kinds() []Kind {
	out := make([]Kind, len(t.Sources))
	for i, s := range t.Sources {
		out[i] = s.Kind
	}
	return out
}

// WallClockFuncs are package time functions that read or wait on the
// real clock. time.Since/Until are included: both call time.Now.
var WallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

// GlobalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that draw from the shared global stream. Constructors
// (New, NewSource, NewPCG, NewChaCha8, NewZipf) and methods on an
// explicit *rand.Rand are fine — those are exactly what seeded
// simulation randomness uses.
var GlobalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// CryptoKeygenPkgs are crypto packages whose GenerateKey draws a
// scheduler-dependent number of bytes from the caller's io.Reader:
// randutil.MaybeReadByte consumes one extra byte on a runtime coin-flip,
// so a deterministic reader no longer yields deterministic keys — and
// every later draw from the same source shifts with it.
var CryptoKeygenPkgs = map[string]bool{
	"crypto/ecdh":  true,
	"crypto/ecdsa": true,
	"crypto/rsa":   true,
	"crypto/dsa":   true,
}

// CryptoRandFuncs are crypto/rand package functions (plus the Reader
// variable) that draw from process entropy — never reproducible from a
// seed.
var CryptoRandFuncs = map[string]bool{
	"Read": true, "Int": true, "Prime": true, "Text": true, "Reader": true,
}

// mapIterFuncs are the stdlib maps-package iterators that yield in map
// order; reflect's MapKeys/MapRange methods are caught separately.
var mapIterFuncs = map[string]bool{
	"Keys": true, "Values": true, "All": true,
}

// BridgePackages lists package paths whose functions are sanctioned
// sim/wall-time bridges: their taint is contained by charter, reviewed
// at the package level rather than per call chain. Reserved for the
// ROADMAP honeypot/live-endpoint bridge; empty today.
var BridgePackages = map[string]bool{}

// Summaries is the fact-producing analyzer. It reports nothing itself;
// detflow and the upgraded simdeterminism consume its facts via
// Requires.
var Summaries = &analysis.Analyzer{
	Name: "taintsummaries",
	Doc: "compute per-function nondeterminism-source summaries and export them " +
		"as facts for detflow and simdeterminism (no diagnostics of its own)",
	FactTypes: []analysis.Fact{(*FuncTaint)(nil)},
	Run:       run,
}

// maxChainHops caps diagnostic chain growth through deep call stacks.
const maxChainHops = 6

// summary is the in-flight lattice value: kind → representative chain.
type summary map[Kind]string

func run(pass *analysis.Pass) (interface{}, error) {
	// Summaries are computed for the whole repro module — exempt packages
	// included, since that is exactly where laundering helpers hide — but
	// never for stdlib (the driver does not type-check it from source).
	// Stdlib nondeterminism is covered by the root tables instead.
	if !strings.HasPrefix(pass.Pkg.Path(), "repro/") {
		return nil, nil
	}
	bridged := Bridges(pass.Fset, pass.Files)
	allBridged := BridgePackages[pass.Pkg.Path()]

	type edge struct {
		callee *types.Func
		pos    token.Pos
	}
	var order []*types.Func
	sums := make(map[*types.Func]summary)
	edges := make(map[*types.Func][]edge)

	for _, file := range pass.Files {
		if name := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if allBridged || bridged[declLine(pass.Fset, fd)] {
				continue // sanctioned bridge: exports no taint
			}
			order = append(order, fn)
			sum := make(summary)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if src, ok := DirectSource(pass.TypesInfo, n); ok {
					if !sanctioned(pass, n.Pos()) {
						if _, seen := sum[src.Kind]; !seen {
							sum[src.Kind] = src.Chain
						}
					}
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := astq.CalleeFunc(pass.TypesInfo, call); callee != nil {
						if !pass.Allowed("detflow", call.Pos()) {
							edges[fn] = append(edges[fn], edge{callee: callee, pos: call.Pos()})
						}
					}
				}
				return true
			})
			sums[fn] = sum
		}
	}

	// Fixpoint over the intra-package call graph. External callees
	// resolve through already-propagated facts (the graph runner
	// guarantees dependencies ran first); same-package callees through
	// the in-flight summaries, iterated until stable to handle any call
	// order and mutual recursion.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			mine := sums[fn]
			for _, e := range edges[fn] {
				var calleeSum summary
				if s, ok := sums[e.callee]; ok {
					calleeSum = s
				} else {
					var fact FuncTaint
					if !pass.ImportObjectFact(e.callee, &fact) {
						continue
					}
					calleeSum = make(summary, len(fact.Sources))
					for _, s := range fact.Sources {
						calleeSum[s.Kind] = s.Chain
					}
				}
				for kind, chain := range calleeSum {
					if _, seen := mine[kind]; !seen {
						mine[kind] = ExtendChain(QualifiedName(e.callee), chain)
						changed = true
					}
				}
			}
		}
	}

	for _, fn := range order {
		if sum := sums[fn]; len(sum) > 0 {
			pass.ExportObjectFact(fn, factOf(sum))
		}
	}
	return nil, nil
}

// sanctioned reports whether a direct source at pos carries a
// //lint:allow for either the direct-use analyzer or the taint consumer:
// a justified suppression sanitizes the summary so it does not cascade.
func sanctioned(pass *analysis.Pass, pos token.Pos) bool {
	return pass.Allowed("simdeterminism", pos) || pass.Allowed("detflow", pos)
}

// DirectSource reports the nondeterminism source an AST node references,
// if any: a selector resolving to a root-table function or variable, or
// a multi-case select statement.
func DirectSource(info *types.Info, n ast.Node) (Source, bool) {
	switch n := n.(type) {
	case *ast.SelectStmt:
		if n.Body != nil && len(n.Body.List) >= 2 {
			return Source{Kind: GoOrder, Chain: "multi-case select"}, true
		}
	case *ast.SelectorExpr:
		obj := info.Uses[n.Sel]
		if obj == nil || obj.Pkg() == nil {
			return Source{}, false
		}
		pkgPath, name := obj.Pkg().Path(), obj.Name()
		// Methods checked before the receiver skip: ecdh's GenerateKey is
		// a Curve method, reflect's MapKeys/MapRange are Value methods.
		if name == "GenerateKey" && CryptoKeygenPkgs[pkgPath] {
			return Source{Kind: Keygen, Chain: obj.Pkg().Name() + ".GenerateKey"}, true
		}
		if pkgPath == "reflect" && (name == "MapKeys" || name == "MapRange") {
			return Source{Kind: MapIter, Chain: "reflect.Value." + name}, true
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return Source{}, false // methods on explicit values are the sanctioned idiom
		}
		switch pkgPath {
		case "time":
			if WallClockFuncs[name] {
				return Source{Kind: Wallclock, Chain: "time." + name}, true
			}
		case "math/rand", "math/rand/v2":
			if GlobalRandFuncs[name] {
				return Source{Kind: GlobalRand, Chain: obj.Pkg().Name() + "." + name}, true
			}
		case "crypto/rand":
			if CryptoRandFuncs[name] {
				return Source{Kind: CryptoRand, Chain: "crypto/rand." + name}, true
			}
		case "maps":
			if mapIterFuncs[name] {
				return Source{Kind: MapIter, Chain: "maps." + name}, true
			}
		}
	}
	return Source{}, false
}

// ExtendChain prefixes one caller hop onto a chain, capping runaway depth.
func ExtendChain(hop, chain string) string {
	if strings.Count(chain, " → ") >= maxChainHops {
		i := strings.LastIndex(chain, " → ")
		chain = chain[:i] + " → …"
	}
	return hop + " → " + chain
}

// factOf converts an in-flight summary to its sorted fact form.
func factOf(sum summary) *FuncTaint {
	fact := &FuncTaint{Sources: make([]Source, 0, len(sum))}
	for kind, chain := range sum {
		fact.Sources = append(fact.Sources, Source{Kind: kind, Chain: chain})
	}
	sort.Slice(fact.Sources, func(i, j int) bool { return fact.Sources[i].Kind < fact.Sources[j].Kind })
	return fact
}

// QualifiedName renders a function for chain display: pkg.Func or
// pkg.Recv.Method.
func QualifiedName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// bridgePrefix is the function-level bridge directive (see package doc).
const bridgePrefix = "lint:bridge"

// Bridges scans the package's comments for //lint:bridge directives and
// returns the set of lines they grant (the directive's line and the one
// below, mirroring //lint:allow placement): a FuncDecl starting on a
// granted line is a sanctioned bridge. Only directives naming detflow
// count — the syntax requires the analyzer name, like //lint:allow.
func Bridges(fset *token.FileSet, files []*ast.File) map[string]bool {
	granted := make(map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				body = strings.TrimSpace(body)
				rest, ok := strings.CutPrefix(body, bridgePrefix)
				if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				rest = strings.TrimSpace(rest)
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				names := strings.Split(rest, ",")
				hit := false
				for _, n := range names {
					if strings.TrimSpace(n) == "detflow" {
						hit = true
					}
				}
				if !hit {
					continue
				}
				pos := fset.Position(c.Pos())
				granted[lineKey(pos.Filename, pos.Line)] = true
				granted[lineKey(pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return granted
}

// declLine keys a FuncDecl by its starting line for bridge lookup.
func declLine(fset *token.FileSet, fd *ast.FuncDecl) string {
	pos := fset.Position(fd.Pos())
	return lineKey(pos.Filename, pos.Line)
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// IsBridged reports whether fd is a sanctioned bridge function given the
// package's granted bridge lines (from Bridges) and path.
func IsBridged(fset *token.FileSet, pkgPath string, granted map[string]bool, fd *ast.FuncDecl) bool {
	return BridgePackages[pkgPath] || granted[declLine(fset, fd)]
}
