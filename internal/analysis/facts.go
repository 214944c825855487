// The fact store: how analyzers exchange knowledge across packages.
//
// A Fact is a statement an analyzer makes about a package-level object (a
// function summary, say) or about a whole package (— "this package
// transitively links net"). Within one phantomlint process all packages
// share one in-memory Store and facts flow through it as the graph runner
// works down the dependency order. Facts are keyed by (import path, object
// key, concrete fact type) — never by go/types object identity, which does
// not survive a package being re-checked.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is implemented by every fact type. The marker method keeps fact
// types explicit: only types registered via Analyzer.FactTypes can be
// exported. Facts are pointers to structs.
type Fact interface{ AFact() }

// factKey addresses one fact holder: a package ("" object key) or a
// package-level object within it.
type factKey struct {
	pkg string // import path
	obj string // "" = package fact; "Name" or "Recv.Method"
}

// Store holds facts for one analysis session. It is safe for concurrent
// use by the graph runner's wave workers.
type Store struct {
	mu    sync.Mutex
	reg   map[string]bool // full type names of the declared fact types
	facts map[factKey]map[string]Fact
}

// NewStore builds a store whose registry covers the fact types declared
// by analyzers (after Requires expansion); exporting any other type panics.
func NewStore(analyzers []*Analyzer) *Store {
	s := &Store{
		reg:   make(map[string]bool),
		facts: make(map[factKey]map[string]Fact),
	}
	for _, a := range Expand(analyzers) {
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if t == nil || t.Kind() != reflect.Pointer {
				panic(fmt.Sprintf("analysis: analyzer %s declares non-pointer fact type %T", a.Name, f))
			}
			s.reg[factTypeName(t)] = true
		}
	}
	return s
}

// factTypeName is the registry key for a pointer fact type:
// "pkgpath.TypeName", unique across analyzers.
func factTypeName(t reflect.Type) string {
	e := t.Elem()
	return e.PkgPath() + "." + e.Name()
}

func (s *Store) export(pkg, obj string, f Fact) {
	name := factTypeName(reflect.TypeOf(f))
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.reg[name] {
		panic(fmt.Sprintf("analysis: fact type %s was not declared in any analyzer's FactTypes", name))
	}
	key := factKey{pkg: pkg, obj: obj}
	m := s.facts[key]
	if m == nil {
		m = make(map[string]Fact)
		s.facts[key] = m
	}
	m[name] = f
}

// lookup copies the stored fact of ptr's concrete type into ptr.
func (s *Store) lookup(pkg, obj string, ptr Fact) bool {
	name := factTypeName(reflect.TypeOf(ptr))
	s.mu.Lock()
	got, ok := s.facts[factKey{pkg: pkg, obj: obj}][name]
	s.mu.Unlock()
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// ObjectKey returns the stable key for a package-level object:
// "Name" for functions, vars, consts and types; "Recv.Method" for
// methods on named types. Local objects have no stable key and return
// ok=false — facts cannot be attached to them.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			named := namedOf(sig.Recv().Type())
			if named == nil {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
