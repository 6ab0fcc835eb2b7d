package exec

import (
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The shared operator inventory. Every physical operator is registered
// here exactly once, and the generic suites are all driven off this one
// map — the iterator contract (contract_test.go), the per-child
// fault-injection matrix, the failed-Open governor drain, and the
// cancelled-context fail-fast check (faults_test.go). Adding an
// operator means adding one entry; the suites pick it up without any
// further hand-maintained lists.

// opCase describes one operator: how many fault-injectable child
// positions it has and how to build it over those children. Position 0
// reads R, position 1 (binary operators) reads S. Leaf operators have
// no child position; their error paths are exercised by the context
// tests in faults_test.go.
type opCase struct {
	children int
	build    func(t *testing.T, ch []Iterator) Iterator
}

// operatorRegistry enumerates every physical operator over the shared
// contract tables (see contractTables). Each build must produce a
// non-empty result on clean children, so the contract suite can tell a
// working operator from one that silently emits nothing.
func operatorRegistry(t *testing.T, rt, st *storage.Table, c *Counters) map[string]opCase {
	t.Helper()
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	key := predicate.Eq(rk, sk)
	must := func(it Iterator, err error) Iterator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	// Each operator registers at the default batch size under its
	// algorithm's name, and under a "batch" name at a tiny batch size
	// that forces multiple refills (and suspended emission) over the
	// 5-row inputs.
	const bsz = 2
	lt := predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk))
	cases := map[string]opCase{
		"indexscan": {0, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewIndexScan(st, "k", relation.Int(2), c))
		}},
		"semireduce-scan": {2, func(t *testing.T, ch []Iterator) Iterator {
			// A non-equi semijoin lowers to the counted nested-loop join
			// in SemiMode.
			return must(NewSemiJoin(ch[0], ch[1], lt, 0))
		}},
		"instrumented": {1, func(t *testing.T, ch []Iterator) Iterator {
			return Instrument(ch[0], "probe", c)
		}},
		"fault": {1, func(t *testing.T, ch []Iterator) Iterator {
			return newFaultIterator(ch[0], Fault{})
		}},
	}
	for prefix, size := range map[string]int{"": 0, "batch": bsz} {
		size := size
		cases[prefix+"scan"] = opCase{0, func(t *testing.T, ch []Iterator) Iterator { return NewBatchScan(rt, c, size) }}
		cases[prefix+"filter"] = opCase{1, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchFilter(ch[0],
				predicate.Cmp(predicate.GtOp, predicate.Col(rk), predicate.Const(relation.Int(1))), size))
		}}
		cases[prefix+"semireduce"] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			// Pure equi predicate: the hash-filter path.
			return must(NewBatchSemiReduce(ch[0], ch[1], key, size))
		}}
		cases[prefix+"indexjoin"] = opCase{1, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchIndexJoin(ch[0], st, "k", rk, nil, InnerMode, c, size))
		}}
		// The generalized outerjoin over its two inner joins: hash for
		// the equi predicate, nested loop for the theta one.
		gojS := []relation.Attr{rk, relation.A("R", "v")}
		cases[prefix+"hashgoj"] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewGOJ(ch[0], ch[1], key, gojS, size))
		}}
		cases[prefix+"nlgoj"] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewGOJ(ch[0], ch[1], lt, gojS, size))
		}}
		for suffix, mode := range map[string]JoinMode{
			"": InnerMode, "-outer": LeftOuterMode, "-semi": SemiMode, "-anti": AntiMode,
		} {
			mode := mode
			cases[prefix+"hashjoin"+suffix] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
				return must(NewBatchHashJoin(ch[0], ch[1], []relation.Attr{rk}, []relation.Attr{sk}, nil, mode, size))
			}}
			cases[prefix+"nestedloop"+suffix] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
				return must(NewBatchNestedLoopJoin(ch[0], ch[1], key, mode, size))
			}}
		}
	}
	return cases
}

// buildChildren vends fault-wrapped scans: position at gets the fault,
// the others are clean wrappers (so their lifecycle is audited too).
func buildChildren(rt, st *storage.Table, n, at int, f Fault) ([]Iterator, []*faultIterator) {
	tables := []*storage.Table{rt, st}
	ch := make([]Iterator, n)
	fis := make([]*faultIterator, n)
	for i := 0; i < n; i++ {
		cfg := Fault{}
		if i == at {
			cfg = f
		}
		fi := faultScan(tables[i], cfg)
		ch[i], fis[i] = fi, fi
	}
	return ch, fis
}
