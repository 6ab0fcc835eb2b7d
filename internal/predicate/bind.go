package predicate

import (
	"fmt"

	"freejoin/internal/relation"
)

// Bound is a predicate compiled against a fixed scheme: attribute lookups
// are resolved to row positions once, so per-tuple evaluation touches no
// maps. Join operators bind their predicate against the concatenated
// scheme before scanning.
type Bound struct {
	eval func(row []relation.Value) Tri
}

// EvalRow evaluates the bound predicate on a positional row over the
// scheme it was bound against.
func (b Bound) EvalRow(row []relation.Value) Tri { return b.eval(row) }

// Holds reports whether the bound predicate selects the row.
func (b Bound) Holds(row []relation.Value) bool { return b.eval(row) == True }

// Bind compiles p against scheme. Every attribute p references must exist
// in the scheme; a missing attribute is an error (unlike Predicate.Eval,
// which reads missing attributes as null — Bind is the strict form used
// inside operators, where a miss indicates a planner bug).
func Bind(p Predicate, scheme *relation.Scheme) (Bound, error) {
	f, err := compile(p, scheme)
	if err != nil {
		return Bound{}, err
	}
	return Bound{eval: f}, nil
}

// MustBind is Bind that panics on error.
func MustBind(p Predicate, scheme *relation.Scheme) Bound {
	b, err := Bind(p, scheme)
	if err != nil {
		panic(err)
	}
	return b
}

type evalFn func(row []relation.Value) Tri

func compile(p Predicate, scheme *relation.Scheme) (evalFn, error) {
	switch q := p.(type) {
	case *Comparison:
		left, err := compileTerm(q.Left, scheme)
		if err != nil {
			return nil, err
		}
		right, err := compileTerm(q.Right, scheme)
		if err != nil {
			return nil, err
		}
		op := q.Op
		return func(row []relation.Value) Tri { return op.eval(left(row), right(row)) }, nil
	case *And:
		subs, err := compileAll(q.Conj, scheme)
		if err != nil {
			return nil, err
		}
		return func(row []relation.Value) Tri {
			out := True
			for _, f := range subs {
				out = out.And(f(row))
				if out == False {
					return False
				}
			}
			return out
		}, nil
	case *Or:
		subs, err := compileAll(q.Disj, scheme)
		if err != nil {
			return nil, err
		}
		return func(row []relation.Value) Tri {
			out := False
			for _, f := range subs {
				out = out.Or(f(row))
				if out == True {
					return True
				}
			}
			return out
		}, nil
	case *Not:
		sub, err := compile(q.P, scheme)
		if err != nil {
			return nil, err
		}
		return func(row []relation.Value) Tri { return sub(row).Not() }, nil
	case *IsNull:
		i := scheme.IndexOf(q.A)
		if i < 0 {
			return nil, fmt.Errorf("predicate: attribute %s not in scheme %s", q.A, scheme)
		}
		neg := q.Negated
		return func(row []relation.Value) Tri {
			if row[i].IsNull() != neg {
				return True
			}
			return False
		}, nil
	case *Literal:
		v := q.V
		return func([]relation.Value) Tri { return v }, nil
	default:
		return nil, fmt.Errorf("predicate: cannot bind predicate of type %T", p)
	}
}

func compileAll(ps []Predicate, scheme *relation.Scheme) ([]evalFn, error) {
	out := make([]evalFn, len(ps))
	for i, p := range ps {
		f, err := compile(p, scheme)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func compileTerm(t Term, scheme *relation.Scheme) (func(row []relation.Value) relation.Value, error) {
	if t.IsConst() {
		v := t.Value()
		return func([]relation.Value) relation.Value { return v }, nil
	}
	i := scheme.IndexOf(t.Attr())
	if i < 0 {
		return nil, fmt.Errorf("predicate: attribute %s not in scheme %s", t.Attr(), scheme)
	}
	return func(row []relation.Value) relation.Value { return row[i] }, nil
}

// EquiParts inspects a predicate and, when it is a pure conjunction of
// attribute equalities that split across the two schemes, returns the
// paired key columns: left[i] in lsch equates with right[i] in rsch. Hash
// joins use this to choose a fast path; ok is false for any other
// predicate shape (they fall back to nested loops).
func EquiParts(p Predicate, lsch, rsch *relation.Scheme) (left, right []relation.Attr, ok bool) {
	for _, c := range Conjuncts(p) {
		cmp, isCmp := c.(*Comparison)
		if !isCmp || cmp.Op != EqOp || cmp.Left.IsConst() || cmp.Right.IsConst() {
			return nil, nil, false
		}
		a, b := cmp.Left.Attr(), cmp.Right.Attr()
		switch {
		case lsch.Contains(a) && rsch.Contains(b):
			left = append(left, a)
			right = append(right, b)
		case lsch.Contains(b) && rsch.Contains(a):
			left = append(left, b)
			right = append(right, a)
		default:
			return nil, nil, false
		}
	}
	return left, right, len(left) > 0
}
