package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/relation"
)

// MergeJoin equi-joins two inputs sorted on their key columns. Inner and
// left-outer modes are supported; duplicates on both sides produce the
// full cross product of each matching group.
//
// Both inputs stream: only the current right-side equal-key group is
// buffered (and charged to the governor). A group that trips the memory
// budget with spilling enabled moves to a spill run, re-scanned once
// per matching left row.
type MergeJoin struct {
	left, right Iterator
	scheme      *relation.Scheme
	lkey, rkey  int
	mode        JoinMode
	rwidth      int

	ec      *ExecContext
	held    hold
	arena   rowArena
	group   [][]relation.Value // current right equal-key group (charged)
	gkey    relation.Value     // group key, valid while hasGroup()
	grun    *spill.Run         // group on disk after a budget trip
	lcur    []relation.Value   // left row currently streaming grun matches
	grd     *spill.Reader
	rnext   []relation.Value // lookahead right row beyond the group
	rdone   bool
	pending [][]relation.Value
	spst    SpillStats
}

// NewMergeJoin joins inputs that must already be sorted ascending on
// leftKey / rightKey (wrap with NewSort otherwise).
func NewMergeJoin(left, right Iterator, leftKey, rightKey relation.Attr, mode JoinMode) (*MergeJoin, error) {
	if mode != InnerMode && mode != LeftOuterMode {
		return nil, fmt.Errorf("exec: merge join supports inner and leftouter modes, got %s", mode)
	}
	lk := left.Scheme().IndexOf(leftKey)
	rk := right.Scheme().IndexOf(rightKey)
	if lk < 0 || rk < 0 {
		return nil, fmt.Errorf("exec: merge join keys missing from schemes")
	}
	sch, err := outputScheme(left.Scheme(), right.Scheme(), mode)
	if err != nil {
		return nil, err
	}
	return &MergeJoin{left: left, right: right, scheme: sch, lkey: lk, rkey: rk,
		mode: mode, rwidth: right.Scheme().Len()}, nil
}

// Scheme implements Iterator.
func (m *MergeJoin) Scheme() *relation.Scheme { return m.scheme }

// Open implements Iterator: both inputs are opened; nothing is buffered
// until Next reaches the first right-side group.
func (m *MergeJoin) Open(ec *ExecContext) error {
	m.held.release(m.ec) // re-Open without Close: drop any stale charge
	m.dropGroupRun(m.ec) // ... and any stale spilled group
	m.ec = ec
	m.group, m.pending, m.rnext, m.lcur = nil, nil, nil, nil
	m.rdone = false
	m.spst = SpillStats{}
	if err := ec.Err("mergejoin"); err != nil {
		return err
	}
	if err := m.left.Open(ec); err != nil {
		m.left.Close()
		return err
	}
	if err := m.right.Open(ec); err != nil {
		m.left.Close()
		m.right.Close()
		return err
	}
	return nil
}

// hasGroup reports whether a right-side group (in memory or spilled) is
// current.
func (m *MergeJoin) hasGroup() bool { return len(m.group) > 0 || m.grun != nil }

// needAdvance reports whether the right side must move forward to reach
// a group with key >= lv.
func (m *MergeJoin) needAdvance(lv relation.Value) bool {
	if m.hasGroup() {
		return m.gkey.Compare(lv) < 0
	}
	return !m.rdone || m.rnext != nil
}

// advanceGroup discards the current group and buffers the next run of
// equal-key right rows (null keys skipped: they never match). A budget
// trip mid-group spills the whole group to disk.
func (m *MergeJoin) advanceGroup() error {
	m.group = nil
	m.held.release(m.ec) // only the group is charged
	m.dropGroupRun(m.ec)
	for {
		var row []relation.Value
		if m.rnext != nil {
			row, m.rnext = m.rnext, nil
		} else if m.rdone {
			return nil
		} else {
			var ok bool
			var err error
			row, ok, err = m.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				m.rdone = true
				return nil
			}
		}
		rv := row[m.rkey]
		if rv.IsNull() {
			continue
		}
		if len(m.group) == 0 {
			m.gkey = rv
		} else if m.gkey.Compare(rv) != 0 {
			// The lookahead row outlives the child's next Next: copy.
			m.rnext = m.arena.copyRow(row)
			return nil
		}
		if err := m.held.charge(m.ec, "mergejoin", row); err != nil {
			if !spillable(m.ec, err) {
				return err
			}
			return m.spillGroup(row)
		}
		m.group = append(m.group, m.arena.copyRow(row))
	}
}

// spillGroup moves the current group — the rows buffered so far, the
// row whose charge tripped, and the rest of the equal-key run — to a
// spill run.
func (m *MergeJoin) spillGroup(tripRow []relation.Value) error {
	w, err := spill.NewWriter(m.ec, "mergejoin")
	if err != nil {
		return err
	}
	for _, row := range m.group {
		if werr := w.Append(row); werr != nil {
			w.Abort()
			return werr
		}
	}
	if werr := w.Append(tripRow); werr != nil {
		w.Abort()
		return werr
	}
	m.group = nil
	m.held.release(m.ec)
	for {
		var row []relation.Value
		if m.rnext != nil {
			row, m.rnext = m.rnext, nil
		} else if m.rdone {
			break
		} else {
			var ok bool
			var nerr error
			row, ok, nerr = m.right.Next()
			if nerr != nil {
				w.Abort()
				return nerr
			}
			if !ok {
				m.rdone = true
				break
			}
		}
		rv := row[m.rkey]
		if rv.IsNull() {
			continue
		}
		if m.gkey.Compare(rv) != 0 {
			m.rnext = m.arena.copyRow(row)
			break
		}
		if werr := w.Append(row); werr != nil {
			w.Abort()
			return werr
		}
	}
	run, ferr := w.Finish()
	if ferr != nil {
		return ferr
	}
	m.grun = run
	m.spst.Runs++
	m.spst.Bytes += run.Bytes
	obs.GovernorDegradations.Inc()
	m.ec.Governor().Note("mergejoin: memory budget trip, spilling right-side group to disk")
	return nil
}

// dropGroupRun releases the spilled group and its reader, if any.
func (m *MergeJoin) dropGroupRun(ec *ExecContext) {
	if m.grd != nil {
		m.grd.Close()
		m.grd = nil
	}
	if m.grun != nil {
		m.grun.Drop(ec)
		m.grun = nil
	}
}

// Next implements Iterator.
func (m *MergeJoin) Next() ([]relation.Value, bool, error) {
	for {
		if len(m.pending) > 0 {
			out := m.pending[0]
			m.pending = m.pending[1:]
			return out, true, nil
		}
		// Streaming the current left row against a spilled group.
		if m.grd != nil {
			rrow, ok, err := m.grd.Next(nil)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return concatRows(m.lcur, rrow), true, nil
			}
			m.grd.Close()
			m.grd, m.lcur = nil, nil
			continue
		}
		lrow, ok, err := m.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		lv := lrow[m.lkey]
		if lv.IsNull() {
			// Null keys never match.
			if m.mode == LeftOuterMode {
				return padRight(lrow, m.rwidth), true, nil
			}
			continue
		}
		// Advance right-side groups until the group key reaches lv.
		for m.needAdvance(lv) {
			if err := m.advanceGroup(); err != nil {
				return nil, false, err
			}
		}
		if m.hasGroup() && m.gkey.Compare(lv) == 0 {
			if m.grun != nil {
				rd, oerr := m.grun.Open()
				if oerr != nil {
					return nil, false, oerr
				}
				m.lcur, m.grd = lrow, rd
				continue
			}
			for _, rrow := range m.group {
				m.pending = append(m.pending, concatRows(lrow, rrow))
			}
			continue
		}
		if m.mode == LeftOuterMode {
			return padRight(lrow, m.rwidth), true, nil
		}
	}
}

// BufferedRows implements Buffered.
func (m *MergeJoin) BufferedRows() int { return len(m.group) + len(m.pending) }

// SpillInfo implements Spiller.
func (m *MergeJoin) SpillInfo() SpillStats { return m.spst }

// Close implements Iterator: the group buffer (and its governor charge),
// any spilled group, and both children are released.
func (m *MergeJoin) Close() error {
	m.group, m.pending, m.rnext, m.lcur = nil, nil, nil, nil
	m.held.release(m.ec)
	m.dropGroupRun(m.ec)
	m.rdone = false
	err := m.left.Close()
	if rerr := m.right.Close(); err == nil {
		err = rerr
	}
	return err
}
