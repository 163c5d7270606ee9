// Package ast defines the abstract syntax of Horn-clause logic programs:
// terms, atoms, rules, and programs, together with the operations the
// transformations in this repository need (substitution, unification,
// renaming, standard form, canonical printing).
//
// The package is purely syntactic. Evaluation lowers these structures into
// the interned representation of package engine; transformations (adornment,
// magic sets, factoring, counting, reduction) operate on ast values only.
package ast

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// TermKind discriminates the three shapes a term can take.
type TermKind uint8

const (
	// Var is a logical variable such as X or Answer.
	Var TermKind = iota
	// Const is an uninterpreted constant symbol such as 5 or paris.
	Const
	// Compound is a function application such as cons(H, T).
	Compound
)

func (k TermKind) String() string {
	switch k {
	case Var:
		return "var"
	case Const:
		return "const"
	case Compound:
		return "compound"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// ConsFunctor is the functor used for list cells. The parser desugars
// [H|T] into Compound ConsFunctor terms, and the printer re-sugars them.
const ConsFunctor = "'.'"

// NilName is the constant denoting the empty list.
const NilName = "[]"

// Term is a logical term. For Kind Var and Const, Functor holds the variable
// or constant name and Args is nil. For Kind Compound, Functor is the
// function symbol and Args are its arguments.
//
// Terms are treated as immutable values: operations that would modify a term
// return a fresh one. Sharing subterms between terms is safe.
type Term struct {
	Kind    TermKind
	Functor string
	Args    []Term
}

// V constructs a variable term.
func V(name string) Term { return Term{Kind: Var, Functor: name} }

// C constructs a constant term.
func C(name string) Term { return Term{Kind: Const, Functor: name} }

// Fn constructs a compound term.
func Fn(functor string, args ...Term) Term {
	return Term{Kind: Compound, Functor: functor, Args: args}
}

// Nil is the empty-list constant.
func Nil() Term { return C(NilName) }

// Cons constructs a single list cell [head|tail].
func Cons(head, tail Term) Term { return Fn(ConsFunctor, head, tail) }

// List constructs a proper list of the given elements.
func List(elems ...Term) Term { return ListTail(Nil(), elems...) }

// ListTail constructs a list of the given elements ending in tail, which may
// be a variable (a partial list) or another list.
func ListTail(tail Term, elems ...Term) Term {
	t := tail
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == Const }

// IsCompound reports whether t is a compound term.
func (t Term) IsCompound() bool { return t.Kind == Compound }

// IsCons reports whether t is a list cell.
func (t Term) IsCons() bool {
	return t.Kind == Compound && t.Functor == ConsFunctor && len(t.Args) == 2
}

// IsNil reports whether t is the empty-list constant.
func (t Term) IsNil() bool { return t.Kind == Const && t.Functor == NilName }

// Ground reports whether t contains no variables.
func (t Term) Ground() bool {
	switch t.Kind {
	case Var:
		return false
	case Const:
		return true
	default:
		for _, a := range t.Args {
			if !a.Ground() {
				return false
			}
		}
		return true
	}
}

// Equal reports structural equality of two terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Functor != u.Functor || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the term tree.
func (t Term) Size() int {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Depth returns the height of the term tree; constants and variables have
// depth 1.
func (t Term) Depth() int {
	d := 0
	for _, a := range t.Args {
		if ad := a.Depth(); ad > d {
			d = ad
		}
	}
	return d + 1
}

// CollectVars appends the names of variables occurring in t to set, in first
// occurrence order, skipping names already present.
func (t Term) CollectVars(order *[]string, seen map[string]bool) {
	switch t.Kind {
	case Var:
		if !seen[t.Functor] {
			seen[t.Functor] = true
			*order = append(*order, t.Functor)
		}
	case Compound:
		for _, a := range t.Args {
			a.CollectVars(order, seen)
		}
	}
}

// Vars returns the variable names occurring in t in first-occurrence order.
func (t Term) Vars() []string {
	var order []string
	t.CollectVars(&order, map[string]bool{})
	return order
}

// HasVar reports whether variable name occurs in t.
func (t Term) HasVar(name string) bool {
	switch t.Kind {
	case Var:
		return t.Functor == name
	case Compound:
		for _, a := range t.Args {
			if a.HasVar(name) {
				return true
			}
		}
	}
	return false
}

// String renders the term in surface syntax. Lists are re-sugared: proper
// lists print as [a,b,c], partial lists as [a,b|T].
func (t Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t Term) write(b *strings.Builder) {
	switch {
	case t.IsCons():
		b.WriteByte('[')
		t.Args[0].write(b)
		rest := t.Args[1]
		for rest.IsCons() {
			b.WriteByte(',')
			rest.Args[0].write(b)
			rest = rest.Args[1]
		}
		if !rest.IsNil() {
			b.WriteByte('|')
			rest.write(b)
		}
		b.WriteByte(']')
	case t.Kind == Compound:
		writeName(b, t.Functor)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.write(b)
		}
		b.WriteByte(')')
	case t.Kind == Const:
		writeName(b, t.Functor)
	default:
		b.WriteString(t.Functor)
	}
}

// writeName writes name through AppendName, without the copy when it
// prints bare (the common case: canonical keys are built per request).
func writeName(b *strings.Builder, name string) {
	if bareName(name) {
		b.WriteString(name)
		return
	}
	var buf [64]byte
	b.Write(AppendName(buf[:0], name))
}

// AppendName appends a constant or functor name to dst in surface syntax:
// bare when the parser reads it back as that same name — a lower-case
// identifier, an integer, or the empty list — and otherwise single-quoted,
// each ' doubled (the lexer's quoted-atom escape). It is the one quoting
// rule: Term.String and the engine's renderer both print names through it.
func AppendName(dst []byte, name string) []byte {
	if bareName(name) {
		return append(dst, name...)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(name); i++ {
		if name[i] == '\'' {
			dst = append(dst, '\'')
		}
		dst = append(dst, name[i])
	}
	return append(dst, '\'')
}

// bareName reports whether the lexer reads name, unquoted, as one atom
// token spelling name: a lower-case letter followed by identifier bytes, or
// an optional '-' followed by digits. The parser also reads [] as NilName.
func bareName(name string) bool {
	if name == "" {
		return false
	}
	if name == NilName {
		return true
	}
	c, rest := name[0], name[1:]
	switch {
	case unicode.IsLower(rune(c)):
		for i := 0; i < len(rest); i++ {
			if !IsIdentByte(rest[i]) {
				return false
			}
		}
		return true
	case c == '-' || unicode.IsDigit(rune(c)):
		for i := 0; i < len(rest); i++ {
			if !unicode.IsDigit(rune(rest[i])) {
				return false
			}
		}
		return c != '-' || rest != ""
	}
	return false
}

// IsIdentByte reports whether c may continue an identifier. The lexer reads
// identifiers with it, so names print exactly as they lex.
func IsIdentByte(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Compare orders terms: variables before constants before compounds, then by
// functor, arity, and arguments lexicographically. It yields a total order
// used for canonical program forms.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		return int(t.Kind) - int(u.Kind)
	}
	if c := strings.Compare(t.Functor, u.Functor); c != 0 {
		return c
	}
	if d := len(t.Args) - len(u.Args); d != 0 {
		return d
	}
	for i := range t.Args {
		if c := t.Args[i].Compare(u.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// SortTerms sorts terms in place using Compare.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
