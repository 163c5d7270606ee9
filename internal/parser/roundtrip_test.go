package parser

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"factorlog/internal/ast"
)

// names is the constant and functor vocabulary: bare names, and names the
// printer must quote — blanks, commas, an embedded quote, a capital, the
// empty name, a lone minus, a name spelled like a parameter.
var names = []string{"a", "b", "c", "42", "-7", "a b", "x,y", "It's", "Up", "", "-", "$0"}

// randRuleTerm builds a random term over a small vocabulary, including
// lists and compounds.
func randRuleTerm(r *rand.Rand, depth int) ast.Term {
	switch {
	case depth <= 0 || r.Intn(4) == 0:
		if r.Intn(2) == 0 {
			return ast.V(fmt.Sprintf("V%d", r.Intn(4)))
		}
		return ast.C(names[r.Intn(len(names))])
	case r.Intn(3) == 0: // proper list
		n := r.Intn(3)
		elems := make([]ast.Term, n)
		for i := range elems {
			elems[i] = randRuleTerm(r, depth-1)
		}
		return ast.List(elems...)
	case r.Intn(3) == 0: // partial list
		return ast.ListTail(ast.V("T"), randRuleTerm(r, depth-1))
	default:
		n := 1 + r.Intn(3)
		args := make([]ast.Term, n)
		for i := range args {
			args[i] = randRuleTerm(r, depth-1)
		}
		return ast.Fn([]string{"f", "g", "h", "a b", "It's"}[r.Intn(5)], args...)
	}
}

func randAtom(r *rand.Rand, pred string) ast.Atom {
	n := 1 + r.Intn(3)
	args := make([]ast.Term, n)
	for i := range args {
		args[i] = randRuleTerm(r, 2)
	}
	return ast.Atom{Pred: pred, Args: args}
}

// TestPrintParseRoundTripProperty: any AST rule prints to text that parses
// back to the identical rule.
func TestPrintParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rule := ast.Rule{Head: randAtom(r, "head")}
		for i := 0; i < r.Intn(4); i++ {
			rule.Body = append(rule.Body, randAtom(r, []string{"p", "q", "e"}[r.Intn(3)]))
		}
		text := rule.String()
		u, err := Parse(text)
		if err != nil {
			t.Logf("parse %q: %v", text, err)
			return false
		}
		var back ast.Rule
		switch {
		case len(u.Rules) == 1:
			back = u.Rules[0]
		case len(u.Facts) == 1:
			back = ast.Fact(u.Facts[0])
		default:
			return false
		}
		if !back.Equal(rule) {
			t.Logf("round trip %q -> %q", text, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPrintParseTermProperty: same for bare terms.
func TestPrintParseTermProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randRuleTerm(r, 3)
		back, err := ParseTerm(term.String())
		if err != nil {
			t.Logf("parse %q: %v", term, err)
			return false
		}
		return back.Equal(term)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
