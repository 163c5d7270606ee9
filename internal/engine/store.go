package engine

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"factorlog/internal/ast"
)

// Val is a handle to an interned ground term. Two Vals from the same Store
// are equal if and only if the terms they denote are equal.
type Val int32

// NoVal is an invalid Val used as a sentinel for unbound slots.
const NoVal Val = -1

type entry struct {
	functor string
	args    []Val // nil for constants
}

// Entries live in fixed-size chunks so that readers can resolve a Val
// without locking: a published Val's chunk is never moved, and the chunk
// spine is swapped atomically when it grows. Interning (the only mutation)
// is serialized by a mutex.
const (
	storeChunkBits = 12
	storeChunkSize = 1 << storeChunkBits
)

type storeChunk [storeChunkSize]entry

// childBase is the first Val a child store assigns. A root store's Vals
// stay below it, so the two ranges never meet however much the parent
// interns after the child was made.
const childBase Val = 1 << 30

// Store interns ground terms. The zero value is not usable; call NewStore.
//
// Interning (Const, Compound, and everything built on them) is safe for
// concurrent use; the read-side accessors (IsConst, Functor, Args, String,
// ...) are lock-free and may run concurrently with interning, provided each
// Val read was published to the reading goroutine by a synchronizing
// operation — the parallel evaluator's round barriers provide exactly that.
//
// A store made by Child is an overlay on its parent: it resolves the
// parent's Vals by delegation and interns whatever the parent does not
// hold in its own range from childBase up. Lookups try the overlay first
// and the parent second, and inserts go to the overlay only, so a term has
// one Val within a child for the child's whole life — whatever the parent
// interns later — and everything the child interned is garbage once the
// child is dropped.
type Store struct {
	mu        sync.Mutex
	parent    *Store // nil for a root store
	base      Val    // first Val this store assigns: 0, or childBase for a child
	consts    map[string]Val
	compounds map[string]Val
	chunks    atomic.Pointer[[]*storeChunk]
	n         int // entries interned here; guarded by mu
	keyBuf    []byte
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		consts:    make(map[string]Val),
		compounds: make(map[string]Val),
	}
	spine := []*storeChunk{}
	s.chunks.Store(&spine)
	return s
}

// Child returns an overlay store on s (see Store). Only a root store has
// children: an evaluation scopes its terms one level below the base
// vocabulary, never deeper.
func (s *Store) Child() *Store {
	if s.parent != nil {
		panic("engine: Child of a child store")
	}
	c := NewStore()
	c.parent, c.base = s, childBase
	return c
}

// entry resolves a published Val without locking.
func (s *Store) entry(v Val) *entry {
	if v < s.base {
		return s.parent.entry(v)
	}
	i := v - s.base
	spine := *s.chunks.Load()
	return &spine[i>>storeChunkBits][i&(storeChunkSize-1)]
}

// addEntry appends e and returns its Val. Caller must hold s.mu.
func (s *Store) addEntry(e entry) Val {
	if s.n >= int(childBase) {
		panic("engine: store is full")
	}
	if s.n&(storeChunkSize-1) == 0 {
		old := *s.chunks.Load()
		spine := make([]*storeChunk, len(old)+1)
		copy(spine, old)
		spine[len(old)] = new(storeChunk)
		s.chunks.Store(&spine)
	}
	spine := *s.chunks.Load()
	spine[s.n>>storeChunkBits][s.n&(storeChunkSize-1)] = e
	v := s.base + Val(s.n)
	s.n++
	return v
}

// Size returns the number of distinct terms interned in this store; a
// child does not count its parent's.
func (s *Store) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Const interns a constant symbol.
func (s *Store) Const(name string) Val {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.findConstLocked(name); ok {
		return v
	}
	v := s.addEntry(entry{functor: name})
	s.consts[name] = v
	return v
}

// findConstLocked looks name up without interning it: here first, then in
// the parent. Caller must hold s.mu; the parent is locked for its own read
// (lock order child, then parent — a parent never locks a child).
func (s *Store) findConstLocked(name string) (Val, bool) {
	if v, ok := s.consts[name]; ok {
		return v, true
	}
	if s.parent == nil {
		return NoVal, false
	}
	s.parent.mu.Lock()
	defer s.parent.mu.Unlock()
	v, ok := s.parent.consts[name]
	return v, ok
}

// Compound interns a compound term from already-interned arguments. The args
// slice is copied.
func (s *Store) Compound(functor string, args ...Val) Val {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := s.compoundKey(functor, args)
	if v, ok := s.findCompoundLocked(key); ok {
		return v
	}
	cp := make([]Val, len(args))
	copy(cp, args)
	v := s.addEntry(entry{functor: functor, args: cp})
	s.compounds[key] = v
	return v
}

// findCompoundLocked is findConstLocked for a compound key. A key naming
// one of this child's own Vals can only miss in the parent, whose keys
// name parent Vals alone.
func (s *Store) findCompoundLocked(key string) (Val, bool) {
	if v, ok := s.compounds[key]; ok {
		return v, true
	}
	if s.parent == nil {
		return NoVal, false
	}
	s.parent.mu.Lock()
	defer s.parent.mu.Unlock()
	v, ok := s.parent.compounds[key]
	return v, ok
}

func (s *Store) compoundKey(functor string, args []Val) string {
	b := s.keyBuf[:0]
	b = append(b, functor...)
	b = append(b, 0)
	for _, a := range args {
		b = binary.AppendVarint(b, int64(a))
	}
	s.keyBuf = b
	return string(b)
}

// Nil returns the interned empty list.
func (s *Store) Nil() Val { return s.Const(ast.NilName) }

// Cons returns the interned list cell [head|tail].
func (s *Store) Cons(head, tail Val) Val { return s.Compound(ast.ConsFunctor, head, tail) }

// List interns a proper list of the given elements.
func (s *Store) List(elems ...Val) Val {
	v := s.Nil()
	for i := len(elems) - 1; i >= 0; i-- {
		v = s.Cons(elems[i], v)
	}
	return v
}

// Int interns the decimal rendering of n as a constant. strconv.Itoa
// renders small ints without the fmt machinery (no interface boxing, no
// verb parsing) — EDB loaders call this per fact, so it is warm.
func (s *Store) Int(n int) Val { return s.Const(strconv.Itoa(n)) }

// IsConst reports whether v denotes a constant.
func (s *Store) IsConst(v Val) bool { return s.entry(v).args == nil }

// Functor returns the constant name or compound functor of v.
func (s *Store) Functor(v Val) string { return s.entry(v).functor }

// Args returns the argument handles of v (nil for constants). The returned
// slice must not be modified.
func (s *Store) Args(v Val) []Val { return s.entry(v).args }

// FromAST interns a ground ast.Term. It returns an error if t contains
// variables.
func (s *Store) FromAST(t ast.Term) (Val, error) {
	switch t.Kind {
	case ast.Var:
		return NoVal, fmt.Errorf("cannot intern non-ground term: variable %s", t.Functor)
	case ast.Const:
		return s.Const(t.Functor), nil
	default:
		args := make([]Val, len(t.Args))
		for i, a := range t.Args {
			v, err := s.FromAST(a)
			if err != nil {
				return NoVal, err
			}
			args[i] = v
		}
		return s.Compound(t.Functor, args...), nil
	}
}

// Find returns the Val of ground term t if it is already interned (here or
// in the parent), without interning anything. Base retractions use it: a
// fact naming a term nobody ever interned cannot be present.
func (s *Store) Find(t ast.Term) (Val, bool) {
	switch t.Kind {
	case ast.Var:
		return NoVal, false
	case ast.Const:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.findConstLocked(t.Functor)
	default:
		args := make([]Val, len(t.Args))
		for i, a := range t.Args {
			v, ok := s.Find(a)
			if !ok {
				return NoVal, false
			}
			args[i] = v
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.findCompoundLocked(s.compoundKey(t.Functor, args))
	}
}

// MustFromAST is FromAST, panicking on variables; for tests and literals.
func (s *Store) MustFromAST(t ast.Term) Val {
	v, err := s.FromAST(t)
	if err != nil {
		panic(err)
	}
	return v
}

// ToAST reconstructs the ast.Term denoted by v.
func (s *Store) ToAST(v Val) ast.Term {
	e := s.entry(v)
	if e.args == nil {
		return ast.C(e.functor)
	}
	args := make([]ast.Term, len(e.args))
	for i, a := range e.args {
		args[i] = s.ToAST(a)
	}
	return ast.Fn(e.functor, args...)
}

// String renders v in surface syntax (lists re-sugared).
func (s *Store) String(v Val) string {
	var b strings.Builder
	s.write(&b, v)
	return b.String()
}

func (s *Store) write(b *strings.Builder, v Val) {
	e := s.entry(v)
	switch {
	case e.args == nil:
		b.WriteString(e.functor)
	case e.functor == ast.ConsFunctor && len(e.args) == 2:
		b.WriteByte('[')
		s.write(b, e.args[0])
		rest := e.args[1]
		for {
			re := s.entry(rest)
			if re.functor == ast.ConsFunctor && len(re.args) == 2 {
				b.WriteByte(',')
				s.write(b, re.args[0])
				rest = re.args[1]
				continue
			}
			break
		}
		if re := s.entry(rest); re.functor != ast.NilName || re.args != nil {
			b.WriteByte('|')
			s.write(b, rest)
		}
		b.WriteByte(']')
	default:
		b.WriteString(e.functor)
		b.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				b.WriteByte(',')
			}
			s.write(b, a)
		}
		b.WriteByte(')')
	}
}

// TupleString renders a tuple as (v1,...,vn).
func (s *Store) TupleString(tuple []Val) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range tuple {
		if i > 0 {
			b.WriteByte(',')
		}
		s.write(&b, v)
	}
	b.WriteByte(')')
	return b.String()
}
