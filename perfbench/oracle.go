package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"freejoin/internal/relation"
)

// answer is a result's row count and an order-insensitive hash of its
// rows: the sum of one mixed hash per row, where a row hashes its
// "column=value" cells in column-name order. Column order and row order
// both depend on the plan; the answer does not.
type answer struct {
	rows int64
	hash uint64
}

func (a *answer) add(rowHash uint64) {
	a.rows++
	a.hash += mix(rowHash)
}

// mix is the splitmix64 finalizer; summing raw FNV hashes would let
// rows cancel each other too easily.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowHasher hashes rows of one scheme in column-name order.
type rowHasher struct {
	names []string
	order []int // order[i] is the column holding the i-th name
}

func newRowHasherNames(cols []string) rowHasher {
	h := rowHasher{names: append([]string(nil), cols...), order: make([]int, len(cols))}
	for i := range h.order {
		h.order[i] = i
	}
	sort.Slice(h.order, func(x, y int) bool { return cols[h.order[x]] < cols[h.order[y]] })
	sort.Strings(h.names)
	return h
}

func newRowHasher(s *relation.Scheme) rowHasher {
	cols := make([]string, s.Len())
	for i := range cols {
		cols[i] = s.At(i).String()
	}
	return newRowHasherNames(cols)
}

func (h rowHasher) hashCells(cells []string) uint64 {
	f := fnv.New64a()
	for i, c := range h.order {
		f.Write([]byte(h.names[i]))
		f.Write([]byte{'='})
		f.Write([]byte(cells[c]))
		f.Write([]byte{0})
	}
	return f.Sum64()
}

// hashValues renders values the way Relation.String renders cells.
func (h rowHasher) hashValues(row []relation.Value) uint64 {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return h.hashCells(cells)
}

func answerOf(r *relation.Relation) answer {
	h := newRowHasher(r.Scheme())
	var a answer
	for i := 0; i < r.Len(); i++ {
		a.add(h.hashValues(r.RawRow(i)))
	}
	return a
}

// parseAnswer reads the answer back from a rendered result: a header of
// column names, a dashed rule, one line per row, and "(N rows)". Every
// generated value is an integer or null, so cells never hold spaces.
func parseAnswer(out string) (answer, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		return answer{}, fmt.Errorf("result has %d lines", len(lines))
	}
	cols := strings.Fields(lines[0])
	h := newRowHasherNames(cols)
	var a answer
	body := lines[2 : len(lines)-1]
	for _, line := range body {
		cells := strings.Fields(line)
		if len(cells) != len(cols) {
			return answer{}, fmt.Errorf("row %q has %d cells, want %d", line, len(cells), len(cols))
		}
		a.add(h.hashCells(cells))
	}
	var n int64
	if _, err := fmt.Sscanf(lines[len(lines)-1], "(%d rows)", &n); err != nil || n != a.rows {
		return answer{}, fmt.Errorf("footer %q does not count %d rows", lines[len(lines)-1], a.rows)
	}
	return a, nil
}
