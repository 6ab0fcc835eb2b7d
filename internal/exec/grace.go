package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/hashutil"
	"freejoin/internal/obs"
	"freejoin/internal/relation"
)

// graceJoin is the spilled state of a BatchHashJoin after a build-side
// budget trip: both inputs hash-partitioned to disk, plus the work list
// of partition pairs still to join. Each pair is joined on the join's
// own arena and probe loop, its left rows decoded from disk a batch at
// a time.
type graceJoin struct {
	parts    int
	maxDepth int

	work   []gracePair // partition pairs still to join (LIFO)
	cur    gracePair   // the pair loaded into the arena, or streaming
	loaded bool        // cur's build side is in the arena
	left   runReader   // cur's left (probe) run
	scan   *runScan    // cur is over budget at maxDepth: block-nested scan

	// Every writer and run ever created, so cleanup after an error or
	// early Close can be exhaustive: Abort and Drop are idempotent
	// no-ops for writers already finished and runs already dropped.
	writers []*spill.Writer
	runs    []*spill.Run

	kbuf []byte           // join-key scratch
	hbuf []byte           // salted-hash scratch
	row  []relation.Value // decode scratch for repartitioning
}

// gracePair is one partition pair: the right (build) and left (probe)
// rows whose salted key hash landed in the same bucket. depth is the
// number of partitioning passes that produced it. The null-key left
// rows of the outer and anti modes form a pair with no build run.
type gracePair struct {
	r, l  *spill.Run
	depth int
}

// joinKey appends row's join key at positions keys to buf; null reports
// a null key column (null keys never match any row).
func joinKey(buf []byte, row []relation.Value, keys []int) ([]byte, bool) {
	for _, k := range keys {
		if row[k].IsNull() {
			return buf, true
		}
		buf = relation.AppendJoinKey(buf, row[k])
	}
	return buf, false
}

// bucket assigns a join key to a partition. The salt (the partitioning
// depth) changes the hash at each recursion level, so a bucket that
// collided at one level spreads out at the next.
func (g *graceJoin) bucket(key []byte, salt int) int {
	g.hbuf = append(g.hbuf[:0], byte(salt))
	g.hbuf = append(g.hbuf, key...)
	return int(hashutil.Sum32(g.hbuf) % uint32(g.parts))
}

// newWriters opens one spill writer per partition, registering them for
// cleanup.
func (g *graceJoin) newWriters(ec *ExecContext) ([]*spill.Writer, error) {
	ws := make([]*spill.Writer, g.parts)
	for i := range ws {
		w, err := spill.NewWriter(ec, "hashjoin")
		if err != nil {
			return nil, err
		}
		ws[i] = w
		g.writers = append(g.writers, w)
	}
	return ws, nil
}

// finish seals writers into runs, registering them for cleanup and
// counting them into st.
func (g *graceJoin) finish(ws []*spill.Writer, st *SpillStats) ([]*spill.Run, error) {
	runs := make([]*spill.Run, len(ws))
	for i, w := range ws {
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		runs[i] = run
		g.runs = append(g.runs, run)
		st.Runs++
		st.Bytes += run.Bytes
	}
	return runs, nil
}

// partitionBatch routes b's rows to the partitions their salted key
// hash selects. Null-key rows go to nullW when it is set (the probe side
// of the outer and anti modes) and are dropped otherwise: they never
// match.
func (g *graceJoin) partitionBatch(ws []*spill.Writer, b *Batch, keys []int, salt int, nullW *spill.Writer) error {
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		key, null := joinKey(g.kbuf[:0], row, keys)
		g.kbuf = key
		var err error
		switch {
		case !null:
			err = ws[g.bucket(key, salt)].Append(row)
		case nullW != nil:
			err = nullW.Append(row)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dropGrace aborts every in-flight writer, drops every live run (both
// idempotent), closes open readers and detaches the grace state.
func (h *BatchHashJoin) dropGrace(ec *ExecContext) {
	g := h.grace
	if g == nil {
		return
	}
	g.left.release()
	if g.scan != nil {
		g.scan.close()
	}
	for _, w := range g.writers {
		w.Abort()
	}
	for _, r := range g.runs {
		r.Drop(ec)
	}
	h.grace = nil
}

// openGrace converts a tripped in-memory build into a grace hash join:
// the rows already in the arena, the batch whose charge tripped, and
// the rest of the right input are hash-partitioned to disk, then the
// probe side is partitioned the same way, seeding one partition pair
// per bucket. Nothing is read twice: the arena's rows are written from
// memory and the right input continues where the build stopped.
func (h *BatchHashJoin) openGrace(ec *ExecContext, trip *Batch) error {
	g := &graceJoin{parts: ec.Spill().Fanout(), maxDepth: ec.Spill().Recursion()}
	h.grace = g
	fail := func(err error, closeRight, closeLeft bool) error {
		if closeRight {
			h.right.Close()
		}
		if closeLeft {
			h.left.Close()
		}
		h.resetBuild(ec)
		h.dropGrace(ec)
		return err
	}
	ws, err := g.newWriters(ec)
	if err != nil {
		return fail(err, true, false)
	}
	for j := int32(0); j < int32(h.brows); j++ {
		if err := ws[g.bucket(h.buildKey(j), 0)].Append(h.buildRow(j)); err != nil {
			return fail(err, true, false)
		}
	}
	h.resetBuild(ec) // the build rows now live on disk under the spill budget
	for b := trip; ; {
		if err := g.partitionBatch(ws, b, h.rkeys, 0, nil); err != nil {
			return fail(err, true, false)
		}
		next, ok, err := h.right.NextBatch()
		if err != nil {
			return fail(err, true, false)
		}
		if !ok {
			break
		}
		b = next
	}
	if err := h.right.Close(); err != nil {
		return fail(err, false, false)
	}
	rruns, err := g.finish(ws, &h.spst)
	if err != nil {
		return fail(err, false, false)
	}

	// Partition the probe side the same way. Null-key left rows go to a
	// dedicated run when the mode emits unmatched left rows.
	var nullW *spill.Writer
	if h.mode == LeftOuterMode || h.mode == AntiMode {
		w, werr := spill.NewWriter(ec, "hashjoin")
		if werr != nil {
			return fail(werr, false, false)
		}
		g.writers = append(g.writers, w)
		nullW = w
	}
	lws, err := g.newWriters(ec)
	if err != nil {
		return fail(err, false, false)
	}
	if err := h.left.Open(ec); err != nil {
		return fail(err, false, true)
	}
	for {
		b, ok, err := h.left.NextBatch()
		if err != nil {
			return fail(err, false, true)
		}
		if !ok {
			break
		}
		if err := g.partitionBatch(lws, b, h.lkeys, 0, nullW); err != nil {
			return fail(err, false, true)
		}
	}
	if err := h.left.Close(); err != nil {
		return fail(err, false, false)
	}
	lruns, err := g.finish(lws, &h.spst)
	if err != nil {
		return fail(err, false, false)
	}
	if nullW != nil {
		nruns, err := g.finish([]*spill.Writer{nullW}, &h.spst)
		if err != nil {
			return fail(err, false, false)
		}
		// An empty build run joins nothing: probing it emits exactly the
		// null-key rows' outer padding or anti output.
		g.work = append(g.work, gracePair{l: nruns[0], depth: 1})
	}
	for i := len(rruns) - 1; i >= 0; i-- {
		g.work = append(g.work, gracePair{r: rruns[i], l: lruns[i], depth: 1})
	}
	h.spst.Partitions += int64(g.parts)
	obs.SpillPartitions.Add(int64(g.parts))
	obs.GovernorDegradations.Inc()
	ec.Governor().Note(fmt.Sprintf("hashjoin: memory budget trip, grace hash join spilling to %d partitions", g.parts))
	return nil
}

// graceBatch fills out from the partition pairs: probe the loaded pair,
// stream a pair that stays over budget, and load the next pair from the
// work list until out is full or every pair is done.
func (h *BatchHashJoin) graceBatch(out *Batch) error {
	g := h.grace
	ec := h.ec
	for !out.Full() {
		switch {
		case g.scan != nil:
			done, err := g.scan.fill(out)
			if err != nil || !done {
				return err
			}
			g.scan.close()
			g.scan = nil
			h.finishPair(ec)
		case g.loaded:
			done, err := h.probe(out)
			if err != nil || !done {
				return err
			}
			h.finishPair(ec)
		case len(g.work) > 0:
			pair := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			noBuild := pair.r == nil || pair.r.Rows == 0
			if pair.l.Rows == 0 || noBuild && (h.mode == InnerMode || h.mode == SemiMode) {
				// Only left rows drive emission, and these cannot emit.
				pair.r.Drop(ec)
				pair.l.Drop(ec)
				continue
			}
			if err := h.loadPartition(ec, pair); err != nil {
				return err
			}
		default:
			return nil
		}
	}
	return nil
}

// finishPair releases the current pair: its runs, the left reader and
// the arena.
func (h *BatchHashJoin) finishPair(ec *ExecContext) {
	g := h.grace
	g.left.close()
	g.cur.r.Drop(ec)
	g.cur.l.Drop(ec)
	g.loaded = false
	h.lc.reset(nil)
	h.resetBuild(ec)
}

// loadPartition decodes pair's build run straight into the arena, a
// batch at a time under one governor charge per batch, then points the
// probe cursor at its left run. A budget trip during the load either
// splits the pair one level deeper or, at the recursion bound, switches
// it to the block-nested run scan.
func (h *BatchHashJoin) loadPartition(ec *ExecContext, pair gracePair) error {
	g := h.grace
	h.resetBuild(ec)
	if pair.r != nil {
		rd, err := pair.r.Open()
		if err != nil {
			return err
		}
		for more := true; more; {
			mark, n := len(h.bvals), 0
			for ; n < h.bsize; n++ {
				vals, ok, rerr := rd.Next(h.bvals)
				if rerr != nil {
					rd.Close()
					h.resetBuild(ec)
					return rerr
				}
				if !ok {
					more = false
					break
				}
				h.bvals = vals
				h.keyLast()
			}
			if cerr := h.held.chargeN(ec, "hashjoin", int64(n), rowBytes(h.bvals[mark:])); cerr != nil {
				rd.Close()
				h.resetBuild(ec)
				if !spillable(ec, cerr) {
					return cerr
				}
				if pair.depth >= g.maxDepth {
					return h.startStream(ec, pair)
				}
				return h.splitPair(ec, pair)
			}
		}
		rd.Close()
	}
	h.buildIndex()
	if err := g.left.open(pair.l, h.left.Scheme(), h.bsize); err != nil {
		h.resetBuild(ec)
		return err
	}
	g.cur, g.loaded = pair, true
	h.lc.reset(g.left.next)
	return nil
}

// repartition re-buckets a run with the next salt, producing one run
// per partition.
func (h *BatchHashJoin) repartition(ec *ExecContext, run *spill.Run, keys []int, salt int) ([]*spill.Run, error) {
	g := h.grace
	ws, err := g.newWriters(ec)
	if err != nil {
		return nil, err
	}
	rd, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	for {
		row, ok, err := rd.Next(g.row[:0])
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		g.row = row
		key, null := joinKey(g.kbuf[:0], row, keys)
		g.kbuf = key
		if null {
			continue // partitioned runs carry no null keys
		}
		if err := ws[g.bucket(key, salt)].Append(row); err != nil {
			return nil, err
		}
	}
	return g.finish(ws, &h.spst)
}

// splitPair re-partitions an over-budget pair one level deeper and
// queues the resulting sub-pairs.
func (h *BatchHashJoin) splitPair(ec *ExecContext, pair gracePair) error {
	g := h.grace
	rruns, err := h.repartition(ec, pair.r, h.rkeys, pair.depth)
	if err != nil {
		return err
	}
	lruns, err := h.repartition(ec, pair.l, h.lkeys, pair.depth)
	if err != nil {
		return err
	}
	pair.r.Drop(ec)
	pair.l.Drop(ec)
	for i := len(rruns) - 1; i >= 0; i-- {
		g.work = append(g.work, gracePair{r: rruns[i], l: lruns[i], depth: pair.depth + 1})
	}
	h.spst.Partitions += int64(g.parts)
	obs.SpillPartitions.Add(int64(g.parts))
	ec.Governor().Note(fmt.Sprintf("hashjoin: re-partitioning over-budget partition at depth %d", pair.depth))
	return nil
}

// startStream switches a pair that is still over budget at the
// recursion bound (heavy key skew re-partitioning cannot shrink) to the
// block-nested run scan: each left batch scans the build run once, so
// memory stays at two batches and the pair always completes.
func (h *BatchHashJoin) startStream(ec *ExecContext, pair gracePair) error {
	g := h.grace
	if err := g.left.open(pair.l, h.left.Scheme(), h.bsize); err != nil {
		return err
	}
	g.cur = pair
	g.scan = &runScan{
		run: pair.r, rsch: h.right.Scheme(), mode: h.mode, size: h.bsize,
		jp:  &joinPred{eqL: h.lkeys, eqR: h.rkeys, bound: h.residual},
		src: g.left.next,
	}
	ec.Governor().Note(fmt.Sprintf("hashjoin: partition over budget at depth %d, block-nested streaming", pair.depth))
	return nil
}
