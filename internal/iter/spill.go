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

// spillRun is one operator's hash partitions, kept in one temp file that
// is unlinked as soon as it is created, so a crashed process leaks nothing.
// Each partition gathers its frames in a small buffer; a full buffer goes
// to the end of the file as one chunk, and the partition keeps where its
// chunks lie. A frame is a uvarint length and a row in the blockstore
// sort-preserving codec (self-delimiting, so wide schema-less tuples
// round-trip).
type spillRun struct {
	file   *os.File
	size   int64                     // bytes appended to file so far
	buf    [spillFanout][]byte       // each partition's frames not yet appended
	chunks [spillFanout][]spillChunk // where each partition's appended frames lie
	rows   [spillFanout]int
	frame  []byte
}

// spillChunk is one appended buffer: n bytes of file at off.
type spillChunk struct{ off, n int64 }

// spillChunkBytes is a partition buffer's size. A run holds spillFanout of
// them, and buffer memory must not dwarf the budget that triggered the
// spill in the first place.
const spillChunkBytes = 1 << 13

// newSpillRun opens the run's file under dir (or the OS temp dir). The
// iter.spill fault point fires here: a failing scratch disk surfaces at the
// moment an operator first needs it.
func newSpillRun(dir string) (*spillRun, error) {
	if err := fault.Inject(fault.IterSpill); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpill, err)
	}
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "cqp-spill-*")
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpill, err)
	}
	// Unlink now: the handle keeps the data alive, the namespace forgets
	// it, and a crash cannot strand partitions on disk.
	os.Remove(f.Name())
	spillRuns.Add(1)
	return &spillRun{file: f}, nil
}

// write appends one framed row to the partition owning hash h.
func (r *spillRun) write(h uint64, row storage.Row) error {
	p := int(h % spillFanout)
	r.frame = blockstore.AppendRow(r.frame[:0], row)
	if r.buf[p] == nil {
		r.buf[p] = make([]byte, 0, spillChunkBytes)
	}
	n := len(r.buf[p])
	r.buf[p] = append(binary.AppendUvarint(r.buf[p], uint64(len(r.frame))), r.frame...)
	r.rows[p]++
	spillRows.Add(1)
	spillBytes.Add(int64(len(r.buf[p]) - n))
	if len(r.buf[p]) >= spillChunkBytes {
		if err := r.flush(p); err != nil {
			return fmt.Errorf("%w write: %w", ErrSpill, err)
		}
	}
	return nil
}

// flush appends partition p's buffer to the file as its next chunk.
func (r *spillRun) flush(p int) error {
	if len(r.buf[p]) == 0 {
		return nil
	}
	n, err := r.file.Write(r.buf[p])
	if err != nil {
		return err
	}
	r.chunks[p] = append(r.chunks[p], spillChunk{r.size, int64(n)})
	r.size += int64(n)
	r.buf[p] = r.buf[p][:0]
	return nil
}

// finish appends every partition's last chunk and drops the buffers. The
// iter.spill fault point fires once more: the last appends are where
// ENOSPC on a nearly-full scratch disk actually lands.
func (r *spillRun) finish() error {
	if err := fault.Inject(fault.IterSpill); err != nil {
		return fmt.Errorf("%w: %w", ErrSpill, err)
	}
	for p := range r.buf {
		if err := r.flush(p); err != nil {
			return fmt.Errorf("%w flush: %w", ErrSpill, err)
		}
		r.buf[p] = nil
	}
	return nil
}

// reader streams one partition back, chunk after chunk.
func (r *spillRun) reader(p int) *spillReader {
	chunks := make([]io.Reader, len(r.chunks[p]))
	var n int64
	for i, c := range r.chunks[p] {
		chunks[i] = io.NewSectionReader(r.file, c.off, c.n)
		n += c.n
	}
	return &spillReader{br: bufio.NewReaderSize(io.MultiReader(chunks...), int(min(n, 1<<16))), left: r.rows[p]}
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

// Close releases the run's file (already unlinked). A nil run (the
// operator never spilled) has nothing to release.
func (r *spillRun) Close() error {
	if r == nil || r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	return err
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
