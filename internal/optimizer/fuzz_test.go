package optimizer

import (
	"math/rand"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

// FuzzJoinTree decodes arbitrary byte strings into small query graphs
// and drives them through the Yannakakis front door: BuildJoinTree and
// ReducerProgram must never panic (cyclic, disconnected, misoriented
// and semijoin graphs must come back as errors), and whenever the graph
// both has a join tree and is certified freely reorderable, the forced
// yannakakis plan must execute to exactly the reference algebra's bag
// on a small seeded database.
//
// Byte codec, one candidate edge per byte over nodes A..H:
//
//	bits 0-2  v endpoint
//	bits 3-5  u endpoint
//	bit 6     edge kind (0 join, 1 outerjoin u -> v)
//	bit 7     predicate (0: u.a = v.a, 1: u.a < v.b)
//
// Self-loops and edges the graph rejects (parallel pairs, second outer
// edge into one node) are skipped.
func FuzzJoinTree(f *testing.F) {
	f.Add([]byte{0x01, 0x0a})             // join chain A - B - C
	f.Add([]byte{0x41, 0x4a})             // outer chain A -> B -> C
	f.Add([]byte{0x01, 0x42})             // join A - B with outer leaf A -> C
	f.Add([]byte{0x01, 0x0a, 0x02})       // triangle: no join tree
	f.Add([]byte{0x01, 0x02, 0x03})       // join star at A
	f.Add([]byte{0x81, 0xc2})             // non-equi predicates, mixed kinds
	f.Add([]byte{0x41, 0x0a})             // outer A -> B then join B - C: tree but not nice
	f.Add([]byte{0x01, 0x0a, 0x13, 0x1c}) // longer chain

	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graph.New()
		edges := 0
		for _, b := range data {
			u, v := names[(b>>3)&0x07], names[b&0x07]
			if u == v {
				continue
			}
			var p predicate.Predicate
			if b&0x80 != 0 {
				p = predicate.Cmp(predicate.LtOp,
					predicate.Col(relation.A(u, "a")), predicate.Col(relation.A(v, "b")))
			} else {
				p = predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
			}
			var err error
			if b&0x40 != 0 {
				err = g.AddOuterEdge(u, v, p)
			} else {
				err = g.AddJoinEdge(u, v, p)
			}
			if err == nil {
				edges++
			}
		}
		if edges == 0 {
			return
		}

		jt, err := graph.BuildJoinTree(g) // must not panic on any input
		if err != nil {
			return
		}
		steps := jt.ReducerProgram() // nor here
		if g.NumNodes() >= 2 && len(steps) == 0 {
			t.Fatalf("join tree over %d nodes produced an empty reducer program", g.NumNodes())
		}
		if g.NumNodes() > 5 || !core.AnalyzeGraph(g).Free {
			// Execution equivalence is only promised for freely-reorderable
			// graphs; keep the executed instances small.
			return
		}

		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rnd := rand.New(rand.NewSource(seed))
		db := workload.RandomDanglingDB(rnd, g, 5, 0.4)
		o := New(catalogFor(db))
		o.Strategy = "yannakakis"
		p, err := o.optimizeGraphCached(g, nil, nil)
		if err != nil {
			t.Fatalf("yannakakis plan over a valid join tree failed: %v\ngraph:\n%s", err, g)
		}
		its, err := expr.EnumerateITs(g, true)
		if err != nil || len(its) == 0 {
			t.Fatalf("EnumerateITs: %v (%d trees)\ngraph:\n%s", err, len(its), g)
		}
		ref, err := its[0].Eval(db)
		if err != nil {
			t.Fatalf("algebra eval: %v", err)
		}
		got, _, err := execute(nil, o, p)
		if err != nil {
			t.Fatalf("yannakakis execute: %v\nplan:\n%s", err, p.Explain())
		}
		if !got.EqualBag(ref) {
			t.Fatalf("reduce-then-join bag differs from the reference algebra: want %d rows, got %d\ngraph:\n%s\nplan:\n%s",
				ref.Len(), got.Len(), g, p.Explain())
		}
	})
}
