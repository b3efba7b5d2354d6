package iter

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"cqp/internal/blockstore"
	"cqp/internal/fault"
	"cqp/internal/storage"
)

// spillFanout is the number of hash partitions a spilling operator fans
// out to. With F partitions a build side of B bytes needs ~B/F bytes of
// memory per read-back pass — one level of Grace partitioning carries a
// budget of M to inputs of roughly F×M.
const spillFanout = 16

// Package-wide spill telemetry, readable by benchmarks and the serving
// daemon without plumbing a registry through every operator.
var (
	spillRuns  atomic.Int64
	spillRows  atomic.Int64
	spillBytes atomic.Int64
)

// ErrSpill marks a failure to create, write or read back a spill file: the
// server's fault, never the caller's.
var ErrSpill = errors.New("iter: spill")

// SpillStats reports cumulative spill activity: runs (operator state
// overflows), rows written to spill files, and bytes written.
func SpillStats() (runs, rows, bytes int64) {
	return spillRuns.Load(), spillRows.Load(), spillBytes.Load()
}

// spillRun is one operator's set of hash partition files. Files are
// unlinked immediately after creation, so crashed processes leak nothing.
// A frame is a uvarint length and a row in the blockstore sort-preserving
// codec (self-delimiting, so wide schema-less tuples round-trip).
type spillRun struct {
	files []*os.File
	w     []*bufio.Writer
	rows  []int
	buf   []byte
}

// newSpillRun opens fanout partition files under dir (or the OS temp dir).
// The iter.spill fault point fires here: a failing scratch disk surfaces
// at the moment an operator first needs it.
func newSpillRun(dir string) (*spillRun, error) {
	if err := fault.Inject(fault.IterSpill); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpill, err)
	}
	if dir == "" {
		dir = os.TempDir()
	}
	r := &spillRun{
		files: make([]*os.File, spillFanout),
		w:     make([]*bufio.Writer, spillFanout),
		rows:  make([]int, spillFanout),
	}
	for i := range r.files {
		f, err := os.CreateTemp(dir, "cqp-spill-*.part")
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("%w: %w", ErrSpill, err)
		}
		// Unlink now: the handle keeps the data alive, the namespace
		// forgets it, and a crash cannot strand partitions on disk.
		os.Remove(f.Name())
		r.files[i] = f
		// Small per-partition buffers: a run holds spillFanout of them,
		// and buffer memory must not dwarf the budget that triggered the
		// spill in the first place.
		r.w[i] = bufio.NewWriterSize(f, 1<<13)
	}
	spillRuns.Add(1)
	return r, nil
}

// write appends one framed row to the partition owning hash h.
func (r *spillRun) write(h uint64, row storage.Row) error {
	p := int(h % spillFanout)
	r.buf = blockstore.AppendRow(r.buf[:0], row)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(r.buf)))
	if _, err := r.w[p].Write(hdr[:n]); err != nil {
		return fmt.Errorf("%w write: %w", ErrSpill, err)
	}
	if _, err := r.w[p].Write(r.buf); err != nil {
		return fmt.Errorf("%w write: %w", ErrSpill, err)
	}
	r.rows[p]++
	spillRows.Add(1)
	spillBytes.Add(int64(n + len(r.buf)))
	return nil
}

// finish flushes all partitions and rewinds them for read-back. The
// iter.spill fault point fires once more: flush is where ENOSPC on a
// nearly-full scratch disk actually lands.
func (r *spillRun) finish() error {
	if err := fault.Inject(fault.IterSpill); err != nil {
		return fmt.Errorf("%w: %w", ErrSpill, err)
	}
	for i, w := range r.w {
		if err := w.Flush(); err != nil {
			return fmt.Errorf("%w flush: %w", ErrSpill, err)
		}
		if _, err := r.files[i].Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("%w: %w", ErrSpill, err)
		}
	}
	return nil
}

// reader streams one partition back.
func (r *spillRun) reader(p int) *spillReader {
	return &spillReader{br: bufio.NewReaderSize(r.files[p], 1<<16), left: r.rows[p]}
}

// route writes the rest of src to the partitions hash assigns its rows to.
func (r *spillRun) route(p *poll, src Iterator, hash func(storage.Row) uint64) error {
	for {
		if err := p.check(); err != nil {
			return err
		}
		row, ok, err := src.Next()
		if !ok || err != nil {
			return err
		}
		if err := r.write(hash(row), row); err != nil {
			return err
		}
	}
}

// Close releases every partition file (already unlinked). A nil run (the
// operator never spilled) has nothing to release.
func (r *spillRun) Close() error {
	if r == nil {
		return nil
	}
	var first error
	for _, f := range r.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.files = nil
	return first
}

type spillReader struct {
	br   *bufio.Reader
	left int
	buf  []byte
}

// next returns the next framed row, ok == false at partition end.
func (s *spillReader) next() (storage.Row, bool, error) {
	if s.left == 0 {
		return nil, false, nil
	}
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		return nil, false, fmt.Errorf("%w read: %w", ErrSpill, err)
	}
	if uint64(cap(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		return nil, false, fmt.Errorf("%w read: %w", ErrSpill, err)
	}
	row, rest, err := blockstore.DecodeRow(s.buf)
	if err != nil {
		return nil, false, fmt.Errorf("%w read: %w", ErrSpill, err)
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("%w read: %d trailing bytes in frame", ErrSpill, len(rest))
	}
	s.left--
	return row, true, nil
}
