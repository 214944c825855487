// The fact store: how analyzers exchange knowledge across package and
// process boundaries.
//
// A Fact is a serializable statement an analyzer makes about a
// package-level object (a function summary, say) or about a whole
// package (— "this package transitively links net"). Within one
// phantomlint process all packages share one in-memory Store and facts
// flow through it as the graph runner works down the dependency order.
// Encode writes every fact the store holds (own plus inherited) and
// Decode merges an encoded store back in, so facts can also cross a
// process boundary. Facts are keyed by (import path, object key, concrete
// fact type) — never by go/types object identity, which does not survive
// a package being re-checked or a process boundary.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// Fact is implemented by every fact type. The marker method keeps fact
// types explicit: only types registered via Analyzer.FactTypes can be
// serialized. Facts must be JSON-marshalable pointers to structs.
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
	reg   map[string]reflect.Type // full type name → concrete struct type
	facts map[factKey]map[string]Fact
}

// NewStore builds a store whose registry covers the fact types declared
// by analyzers (after Requires expansion), so Decode can reconstruct
// concrete values from serialized form.
func NewStore(analyzers []*Analyzer) *Store {
	s := &Store{
		reg:   make(map[string]reflect.Type),
		facts: make(map[factKey]map[string]Fact),
	}
	for _, a := range Expand(analyzers) {
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if t == nil || t.Kind() != reflect.Pointer {
				panic(fmt.Sprintf("analysis: analyzer %s declares non-pointer fact type %T", a.Name, f))
			}
			s.reg[factTypeName(t)] = t.Elem()
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
	if _, ok := s.reg[name]; !ok {
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

// ObjectKey returns the serializable key for a package-level object:
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

// encodedFact is the wire form of one fact.
type encodedFact struct {
	Pkg  string          `json:"pkg"`
	Obj  string          `json:"obj,omitempty"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// encodedStore versions the fact file format; bump it when fact semantics
// change so files encoded under the old semantics are rejected.
type encodedStore struct {
	Version int           `json:"version"`
	Facts   []encodedFact `json:"facts"`
}

// factFormatVersion is the serialized fact file format version.
const factFormatVersion = 1

// Encode serializes every fact in the store — the package's own and the
// inherited ones — sorted for byte determinism.
func (s *Store) Encode() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := encodedStore{Version: factFormatVersion}
	for key, byType := range s.facts {
		for name, f := range byType {
			data, err := json.Marshal(f)
			if err != nil {
				return nil, fmt.Errorf("analysis: encoding fact %s on %s.%s: %v", name, key.pkg, key.obj, err)
			}
			doc.Facts = append(doc.Facts, encodedFact{Pkg: key.pkg, Obj: key.obj, Type: name, Data: data})
		}
	}
	sort.Slice(doc.Facts, func(i, j int) bool {
		a, b := doc.Facts[i], doc.Facts[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Type < b.Type
	})
	return json.Marshal(doc)
}

// Decode merges a serialized fact file into the store. Facts of types
// absent from the registry are skipped — a fact file written by a newer
// suite stays readable.
func (s *Store) Decode(data []byte) error {
	if len(data) == 0 {
		return nil // empty dependency file: no facts
	}
	var doc encodedStore
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("analysis: decoding fact file: %v", err)
	}
	if doc.Version != factFormatVersion {
		return fmt.Errorf("analysis: fact file version %d, want %d (stale cache?)", doc.Version, factFormatVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ef := range doc.Facts {
		t, ok := s.reg[ef.Type]
		if !ok {
			continue
		}
		v := reflect.New(t)
		if err := json.Unmarshal(ef.Data, v.Interface()); err != nil {
			return fmt.Errorf("analysis: decoding fact %s on %s.%s: %v", ef.Type, ef.Pkg, ef.Obj, err)
		}
		key := factKey{pkg: ef.Pkg, obj: ef.Obj}
		m := s.facts[key]
		if m == nil {
			m = make(map[string]Fact)
			s.facts[key] = m
		}
		m[ef.Type] = v.Interface().(Fact)
	}
	return nil
}
