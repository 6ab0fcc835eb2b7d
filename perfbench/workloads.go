package main

import (
	"fmt"
	"math/rand"

	"freejoin/internal/expr"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/relation"
)

// table is one generated base relation and the columns the load step
// hash-indexes.
type table struct {
	name    string
	rel     *relation.Relation
	indexes []string
}

// dataset is everything a workload's run derives from the seed: the
// tables, the distinct query texts and the request stream (indices into
// texts).
type dataset struct {
	tables []table
	texts  []string
	stream []int32
	// warm lists the texts sent once, in order, to fill the plan cache
	// during set-up.
	warm []int32
	// spill and memLimit are the session settings of every connection
	// (the server defaults when false and 0).
	spill    bool
	memLimit int64
	// props are the measured input properties printed with every run.
	props []prop
}

type prop struct {
	name  string
	value float64
}

// workload is one traffic mix: its generator, how many connections drive
// it, how many requests the traced replay covers, and how its reference
// answers are computed.
type workload struct {
	name  string
	conns int
	// traced is the length of the traced replay, in requests.
	traced int
	gen    func(rnd *rand.Rand) *dataset
	// refs computes the reference answer of every text, independently of
	// the planner.
	refs func(ds *dataset) ([]answer, error)
}

// The workloads, in BENCHMARK.json order. Why each exists, and what each
// per-layer metric should move on it, is recorded in rationale.json.
var workloads = []*workload{
	// Example 1 point lookups over a key pool far larger than the plan
	// cache: nearly every lookup misses, so the server, parse, analysis
	// and DP dominate, and execution is at most four index fetches per
	// result row.
	{name: "point-example1", conns: 2, traced: 3000, gen: genPoint, refs: pointRefs},
	// A rotation of four queries over 90%-dangling tables: every plan
	// lookup hits, intermediates are large and outputs small, so operators
	// and plan choice dominate.
	{name: "analytic-dangling", conns: 1, traced: 160, gen: genAnalytic, refs: evalRefs},
	// A hash join whose build side is four times the session's memory
	// limit: it runs as a grace hash join through disk.
	{name: "spill-join", conns: 1, traced: 40, gen: genSpill, refs: evalRefs},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func intRow(vals ...int64) []relation.Value {
	row := make([]relation.Value, len(vals))
	for i, v := range vals {
		row[i] = relation.Int(v)
	}
	return row
}

// The point-example1 sizes. The key pool is 128 times the default plan-cache
// capacity, so a uniformly drawn key is resident with probability ~1/128.
const (
	pointRows    = 50000
	pointPool    = 16384
	pointStream  = 1 << 17
	pointMatches = 0.8 // share of R2.b / R3.b values that find a partner
)

// pointQuery is the paper's Example 1 shape extended by one outerjoin,
// written outerjoin-first: evaluated as written it joins every row of
// R2, R3 and R4; reordered, it is at most four index fetches per result
// row (fewer where a foreign key dangles).
const pointQuery = "sigma[R1.a = %d](R1) -[R1.b = R2.a] ((R2 ->[R2.b = R3.a] R3) ->[R3.b = R4.a] R4)"

func genPoint(rnd *rand.Rand) *dataset {
	ds := &dataset{}
	// link draws a foreign key that hits a unique key of the next table
	// with probability p and dangles otherwise.
	link := func(p float64) int64 {
		if rnd.Float64() < p {
			return rnd.Int63n(pointRows)
		}
		return pointRows + rnd.Int63n(pointRows)
	}
	for i, name := range []string{"R1", "R2", "R3", "R4"} {
		r := relation.New(relation.SchemeOf(name, "a", "b"))
		for k := int64(0); k < pointRows; k++ {
			var b int64
			switch i {
			case 0:
				b = link(1)
			case 1, 2:
				b = link(pointMatches)
			default:
				b = rnd.Int63n(1 << 20)
			}
			r.AppendRaw(intRow(k, b))
		}
		ds.tables = append(ds.tables, table{name: name, rel: r, indexes: []string{"a"}})
	}
	for _, k := range rnd.Perm(pointRows)[:pointPool] {
		ds.texts = append(ds.texts, fmt.Sprintf(pointQuery, k))
	}
	ds.stream = make([]int32, pointStream)
	for i := range ds.stream {
		ds.stream[i] = int32(rnd.Intn(pointPool))
	}
	// The warm-up keys are drawn apart from the stream, so the stream's
	// first requests are not planted in the cache.
	ds.warm = make([]int32, 64)
	for i := range ds.warm {
		ds.warm[i] = int32(rnd.Intn(pointPool))
	}
	ds.props = []prop{
		{"table_rows", pointRows},
		{"plan_cache_capacity", plancache.DefaultCapacity},
		{"key_pool", pointPool},
		{"dangling_frac", 1 - pointMatches},
	}
	return ds
}

// pointRefs evaluates the query once without the key restriction through
// the reference algebra and splits the result by R1.a: a restriction on
// R1 commutes with the join above it, so each key's answer is its slice.
func pointRefs(ds *dataset) ([]answer, error) {
	q, err := parse.Expr("R1 -[R1.b = R2.a] ((R2 ->[R2.b = R3.a] R3) ->[R3.b = R4.a] R4)")
	if err != nil {
		return nil, err
	}
	full, err := q.Eval(dbOf(ds))
	if err != nil {
		return nil, err
	}
	col := full.Scheme().IndexOf(relation.A("R1", "a"))
	byKey := map[int64]*answer{}
	h := newRowHasher(full.Scheme())
	for i := 0; i < full.Len(); i++ {
		row := full.RawRow(i)
		k := row[col].AsInt()
		a := byKey[k]
		if a == nil {
			a = &answer{}
			byKey[k] = a
		}
		a.add(h.hashValues(row))
	}
	refs := make([]answer, len(ds.texts))
	for i, text := range ds.texts {
		var k int64
		if _, err := fmt.Sscanf(text, "sigma[R1.a = %d]", &k); err != nil {
			return nil, fmt.Errorf("point text %q: %w", text, err)
		}
		if a := byKey[k]; a != nil {
			refs[i] = *a
		}
	}
	return refs, nil
}

// The analytic-dangling sizes follow BenchmarkYannakakisDangling: a join
// chain A - B - C whose relations are 90% rows no complete result uses,
// with a hot key shared by A and B but absent from C, and another shared
// by B and C but absent from A, so every first join of the chain
// produces analyticHot² rows that the third relation then discards.
const (
	analyticRows     = 4000
	analyticBackbone = 400 // keys present once in each of A, B and C
	analyticHot      = 150
	analyticStream   = 1 << 12
	hotAB            = int64(5_000_001)
	hotBC            = int64(5_000_002)
)

var analyticTexts = []string{
	// The dangling equi-join chain.
	"(A -[A.a = B.a] B) -[B.a = C.a] C",
	// Its outerjoin-tree variant.
	"((A -[A.a = B.a] B) -[B.a = C.a] C) ->[C.b = D.a] D",
	// Example 1's theta crossover: reordered, a nested-loop theta join of
	// the few restricted A rows, then an index outerjoin into D.
	"sigma[A.b < 5](A) -[A.b > B.b] (B ->[B.b = D.a] D)",
	// Example 2's non-nice shape: it keeps the written order.
	"sigma[A.b < 100](A) ->[A.a = B.a] (B -[B.a = C.a] C)",
}

func genAnalytic(rnd *rand.Rand) *dataset {
	ds := &dataset{texts: analyticTexts}
	for i, name := range []string{"A", "B", "C", "D"} {
		var rows [][]relation.Value
		add := func(key int64, count int) {
			for j := 0; j < count; j++ {
				rows = append(rows, intRow(key, 0))
			}
		}
		switch name {
		case "A":
			add(hotAB, analyticHot)
		case "B":
			add(hotAB, analyticHot)
			add(hotBC, analyticHot)
		case "C":
			add(hotBC, analyticHot)
		}
		if name == "D" {
			// D.a holds every even value of the b domain once, so about
			// half of the outerjoined rows find a partner.
			for k := int64(0); k < 1000; k += 2 {
				add(k, 1)
			}
		} else {
			for j := int64(0); j < analyticBackbone; j++ {
				add(j*10, 1)
			}
		}
		offset := int64(100_000 * (i + 1))
		for len(rows) < analyticRows {
			add(offset+int64(len(rows)), 1)
		}
		setB(rnd, rows, 1000)
		t := table{name: name, rel: shuffled(rnd, name, rows)}
		if name == "D" {
			t.indexes = []string{"a"}
		}
		ds.tables = append(ds.tables, t)
	}
	ds.stream = make([]int32, analyticStream)
	for i := range ds.stream {
		ds.stream[i] = int32(i % len(ds.texts))
	}
	ds.warm = []int32{0, 1, 2, 3}
	ds.props = []prop{
		{"table_rows", analyticRows},
		{"plan_cache_capacity", plancache.DefaultCapacity},
		{"distinct_texts", float64(len(ds.texts))},
		{"dangling_frac", 1 - float64(analyticBackbone)/analyticRows},
		{"hot_group_rows", analyticHot},
	}
	return ds
}

// The spill-join sizes: two 50k-row tables sharing 1% of their keys, run
// under a memory limit a quarter of the build side's governor charge
// (50k rows x 2 values x 40 bytes).
const (
	spillRows     = 50000
	spillShared   = 500
	spillLimit    = 1 << 20
	spillStream   = 1 << 10
	valueBytes    = 40 // the governor's per-value charge
	spillPreserve = 200
)

var spillTexts = []string{
	"L -[L.a = R.a] R",
	// The restriction keeps the preserved side (and so the rendered
	// answer) small; the build side stays the whole of R.
	fmt.Sprintf("sigma[L.b < %d](L) ->[L.a = R.a] R", spillPreserve),
}

func genSpill(rnd *rand.Rand) *dataset {
	ds := &dataset{texts: spillTexts}
	for i, name := range []string{"L", "R"} {
		rows := make([][]relation.Value, spillRows)
		for k := range rows {
			key := int64(1_000_000*(i+1) + k)
			if k < spillShared {
				key = int64(k)
			}
			rows[k] = intRow(key, 0)
		}
		setB(rnd, rows, 10000)
		ds.tables = append(ds.tables, table{name: name, rel: shuffled(rnd, name, rows)})
	}
	ds.stream = make([]int32, spillStream)
	for i := range ds.stream {
		ds.stream[i] = int32(i % len(ds.texts))
	}
	ds.warm = []int32{0, 1}
	ds.spill, ds.memLimit = true, spillLimit
	ds.props = []prop{
		{"table_rows", spillRows},
		{"matching_key_frac", float64(spillShared) / spillRows},
		{"memory_limit_bytes", spillLimit},
		{"build_side_bytes", spillRows * 2 * valueBytes},
	}
	return ds
}

// setB fills column b with every value of [0, domain) equally often, in
// a seeded random order: restrictions and theta joins on b then select
// the same number of rows under every seed, and only which rows varies.
func setB(rnd *rand.Rand, rows [][]relation.Value, domain int) {
	for i, j := range rnd.Perm(len(rows)) {
		rows[j][1] = relation.Int(int64(i % domain))
	}
}

// shuffled loads rows into a relation R(a, b) in a seeded random order.
func shuffled(rnd *rand.Rand, name string, rows [][]relation.Value) *relation.Relation {
	rnd.Shuffle(len(rows), func(x, y int) { rows[x], rows[y] = rows[y], rows[x] })
	r := relation.New(relation.SchemeOf(name, "a", "b"))
	for _, row := range rows {
		r.AppendRaw(row)
	}
	return r
}

// sessionLines are the protocol lines a connection sends before its
// first query.
func (ds *dataset) sessionLines() []string {
	var lines []string
	if ds.spill {
		lines = append(lines, "set spill on")
	}
	if ds.memLimit > 0 {
		lines = append(lines, fmt.Sprintf("set memory_limit %d", ds.memLimit))
	}
	return lines
}

func dbOf(ds *dataset) expr.DB {
	db := expr.DB{}
	for _, t := range ds.tables {
		db[t.name] = t.rel
	}
	return db
}

// evalRefs evaluates every text through the reference algebra.
func evalRefs(ds *dataset) ([]answer, error) {
	db := dbOf(ds)
	refs := make([]answer, len(ds.texts))
	for i, text := range ds.texts {
		q, err := parse.Expr(text)
		if err != nil {
			return nil, err
		}
		out, err := q.Eval(db)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", text, err)
		}
		refs[i] = answerOf(out)
	}
	return refs, nil
}
