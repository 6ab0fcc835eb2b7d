// Package spill implements governed spill-to-disk run files for the
// external-memory execution paths: the grace hash join's partitions and
// the spilled inner inputs of the nested-loop join and the semijoin
// filter. A Writer streams rows into a temp file in a compact binary
// encoding, charging the governor's spill-bytes budget as it goes;
// Finish seals the file into a Run, which can be opened for sequential
// re-reading any number of times and is deleted (and its byte charge
// released) by Drop.
//
// The package sits below internal/exec (which consumes it) and above
// internal/resource (whose ExecContext carries the SpillConfig and the
// spill budget), mirroring how exec itself layers over resource.
package spill

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/resource"
)

// Enabled reports whether the context allows spilling to disk.
func Enabled(ec *resource.ExecContext) bool { return ec.Spill() != nil }

// Writer streams rows into a new spill run file. Append charges the
// governor's spill budget with each row's encoded size; the caller must
// end the writer with exactly one of Finish (sealing a Run that now owns
// the file and the charge) or Abort (deleting the file and releasing the
// charge).
type Writer struct {
	ec    *resource.ExecContext
	op    string
	f     *os.File
	bw    *bufio.Writer
	buf   []byte
	rows  int64
	bytes int64
	start time.Time
	done  bool
}

// NewWriter creates a run file in the context's spill directory on
// behalf of op (the operator name used in resource errors). The
// directory is created if it does not exist yet.
func NewWriter(ec *resource.ExecContext, op string) (*Writer, error) {
	dir := ec.Spill().Directory()
	f, err := os.CreateTemp(dir, Prefix+"*.run")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.CreateTemp(dir, Prefix+"*.run")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Writer{ec: ec, op: op, f: f, bw: bufio.NewWriter(f), start: time.Now()}, nil
}

// Append encodes and writes one row, charging its encoded size against
// the spill budget. On error (including a spill-budget trip) the writer
// still owns its charge: call Abort.
func (w *Writer) Append(row []relation.Value) error {
	w.buf = appendRow(w.buf[:0], row)
	n := int64(len(w.buf))
	if err := w.ec.ReserveSpill(w.op, n); err != nil {
		return err
	}
	w.bytes += n
	w.rows++
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Rows returns the rows appended so far.
func (w *Writer) Rows() int64 { return w.rows }

// Finish flushes and seals the run. The returned Run owns the file and
// the spill-byte charge; on error the writer aborts itself first.
func (w *Writer) Finish() (*Run, error) {
	if w.done {
		return nil, fmt.Errorf("spill: writer already finished")
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return nil, fmt.Errorf("spill: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.Abort()
		return nil, fmt.Errorf("spill: %w", err)
	}
	w.done = true
	obs.SpillRuns.Inc()
	obs.SpillBytes.Add(w.bytes)
	obs.SpillWriteLatency.ObserveDuration(time.Since(w.start))
	return &Run{path: w.f.Name(), Rows: w.rows, Bytes: w.bytes}, nil
}

// Abort discards an unfinished run: the file is removed and the
// accumulated spill-byte charge released. Safe to call after a failed
// Append or Finish; a no-op after a successful Finish.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.f.Name())
	w.ec.ReleaseSpill(w.bytes)
	w.bytes = 0
}

// Run is a sealed spill file: Rows rows over Bytes encoded bytes, held
// against the governor's spill budget until Drop.
type Run struct {
	path    string
	Rows    int64
	Bytes   int64
	dropped bool
}

// Open returns a sequential reader over the run. A run may be opened
// many times (the nested-loop spill path re-scans per outer row).
func (r *Run) Open() (*Reader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Reader{f: f, br: bufio.NewReader(f)}, nil
}

// Drop deletes the run file and releases its spill-byte charge.
// Idempotent; any open Readers keep working on the unlinked file.
func (r *Run) Drop(ec *resource.ExecContext) {
	if r == nil || r.dropped {
		return
	}
	r.dropped = true
	os.Remove(r.path)
	ec.ReleaseSpill(r.Bytes)
}

// Reader iterates a run's rows in write order.
type Reader struct {
	f  *os.File
	br *bufio.Reader
}

// Next decodes the next row and appends its values to dst, returning
// the extended slice (the row is its tail), or false at end of run.
// Callers that buffer many rows pass their arena and so allocate no
// per-row slice; a nil dst yields a freshly allocated row.
func (r *Reader) Next(dst []relation.Value) ([]relation.Value, bool, error) {
	return readRow(r.br, dst)
}

// Close releases the underlying file handle. Idempotent.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Prefix is the filename prefix of every spill run file this package
// creates (the CreateTemp pattern is Prefix + random + ".run").
const Prefix = "ojspill-"

// DefaultStaleAge is the age past which SweepStale considers an
// orphaned run file dead. Live queries hold their runs for seconds to
// minutes; an hour-old run can only belong to a process that died
// mid-query.
const DefaultStaleAge = time.Hour

// SweepStale removes ojspill-* run files in dir whose modification time
// is older than olderThan (DefaultStaleAge when olderThan <= 0),
// returning how many were removed. Run files are normally deleted by
// Drop/Abort, but a process killed mid-query orphans whatever it had on
// disk; the server and shell sweep their spill directory on startup.
// The age threshold keeps a sweep from deleting run files a concurrently
// running process still owns (the default spill dir is the shared OS
// temp dir). Missing directories are not an error — there is simply
// nothing to sweep.
func SweepStale(dir string, olderThan time.Duration) (int, error) {
	if olderThan <= 0 {
		olderThan = DefaultStaleAge
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("spill: sweep %s: %w", dir, err)
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	var firstErr error
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), Prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			if firstErr == nil && !errors.Is(err, os.ErrNotExist) {
				firstErr = err
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
