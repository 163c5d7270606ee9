package ast

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	v := V("X")
	if !v.IsVar() || v.IsConst() || v.IsCompound() {
		t.Fatalf("V: wrong kind predicates: %+v", v)
	}
	c := C("paris")
	if !c.IsConst() || c.IsVar() {
		t.Fatalf("C: wrong kind predicates: %+v", c)
	}
	f := Fn("f", v, c)
	if !f.IsCompound() || f.Functor != "f" || len(f.Args) != 2 {
		t.Fatalf("Fn: %+v", f)
	}
}

func TestListSugar(t *testing.T) {
	l := List(C("a"), C("b"), C("c"))
	if got := l.String(); got != "[a,b,c]" {
		t.Errorf("List string = %q, want [a,b,c]", got)
	}
	if !l.IsCons() {
		t.Error("List should be a cons cell")
	}
	partial := ListTail(V("T"), C("a"))
	if got := partial.String(); got != "[a|T]" {
		t.Errorf("partial list = %q, want [a|T]", got)
	}
	if got := Nil().String(); got != "[]" {
		t.Errorf("Nil = %q", got)
	}
	if !Nil().IsNil() {
		t.Error("Nil().IsNil() = false")
	}
	one := Cons(C("x"), Nil())
	if got := one.String(); got != "[x]" {
		t.Errorf("singleton = %q", got)
	}
}

func TestTermGround(t *testing.T) {
	cases := []struct {
		term Term
		want bool
	}{
		{C("a"), true},
		{V("X"), false},
		{Fn("f", C("a"), C("b")), true},
		{Fn("f", C("a"), V("X")), false},
		{List(C("a"), C("b")), true},
		{ListTail(V("T"), C("a")), false},
	}
	for _, c := range cases {
		if got := c.term.Ground(); got != c.want {
			t.Errorf("Ground(%s) = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestTermEqualSizeDepth(t *testing.T) {
	a := Fn("f", V("X"), Fn("g", C("c")))
	b := Fn("f", V("X"), Fn("g", C("c")))
	if !a.Equal(b) {
		t.Error("structurally equal terms not Equal")
	}
	if a.Equal(Fn("f", V("Y"), Fn("g", C("c")))) {
		t.Error("different variables reported Equal")
	}
	if a.Size() != 4 {
		t.Errorf("Size = %d, want 4", a.Size())
	}
	if a.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", a.Depth())
	}
	if C("a").Depth() != 1 {
		t.Error("constant depth should be 1")
	}
}

func TestTermVars(t *testing.T) {
	term := Fn("f", V("X"), Fn("g", V("Y"), V("X")), V("Z"))
	got := term.Vars()
	want := []string{"X", "Y", "Z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Vars = %v, want %v", got, want)
	}
	if !term.HasVar("Y") || term.HasVar("Q") {
		t.Error("HasVar wrong")
	}
}

func TestTermCompareTotalOrder(t *testing.T) {
	terms := []Term{V("X"), V("Y"), C("a"), C("b"), Fn("f", C("a")), Fn("f", C("b")), Fn("g", C("a"))}
	for i := range terms {
		for j := range terms {
			cij := terms[i].Compare(terms[j])
			cji := terms[j].Compare(terms[i])
			if (cij == 0) != (i == j) && terms[i].Equal(terms[j]) != (cij == 0) {
				t.Errorf("Compare(%s,%s)=%d inconsistent with Equal", terms[i], terms[j], cij)
			}
			if sign(cij) != -sign(cji) {
				t.Errorf("Compare not antisymmetric on (%s,%s)", terms[i], terms[j])
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// randTerm generates a random term over a small vocabulary; used by
// property tests.
func randTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return V([]string{"X", "Y", "Z"}[r.Intn(3)])
		}
		return C([]string{"a", "b", "c"}[r.Intn(3)])
	}
	n := 1 + r.Intn(2)
	args := make([]Term, n)
	for i := range args {
		args[i] = randTerm(r, depth-1)
	}
	return Fn([]string{"f", "g"}[r.Intn(2)], args...)
}

func TestTermEqualReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randTerm(r, 3)
		return x.Equal(x) && x.Compare(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortTermsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ts := make([]Term, 20)
	for i := range ts {
		ts[i] = randTerm(r, 3)
	}
	a := append([]Term(nil), ts...)
	b := append([]Term(nil), ts...)
	// shuffle b
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	SortTerms(a)
	SortTerms(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("sort not deterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestTermKindString(t *testing.T) {
	if Var.String() != "var" || Const.String() != "const" || Compound.String() != "compound" {
		t.Error("TermKind.String wrong")
	}
	if TermKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestAppendName(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"a", "a"}, {"fooBar_9", "fooBar_9"}, {"42", "42"}, {"-7", "-7"}, {"007", "007"}, {"[]", "[]"},
		{"", "''"}, {"-", "'-'"}, {"a b", "'a b'"}, {"x,y", "'x,y'"}, {"It's", "'It''s'"},
		{"Up", "'Up'"}, {"_x", "'_x'"}, {"$0", "'$0'"}, {"4a", "'4a'"}, {"京都", "'京都'"},
	} {
		if got := string(AppendName(nil, tc.name)); got != tc.want {
			t.Errorf("AppendName(%q) = %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := Fn("a b", C("It's"), List(C("x,y"))).String(); got != "'a b'('It''s',['x,y'])" {
		t.Errorf("String = %s", got)
	}
}
