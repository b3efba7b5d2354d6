package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"cqp/internal/iter"
	"cqp/internal/storage"
)

// DefaultShareBytes caps how much relation data one ScanShare will
// materialize per relation (64 MiB). Relations estimated bigger than this
// are never shared — every consumer opens its own streaming scan, as
// without sharing — so a batch over a huge table cannot OOM the daemon.
const DefaultShareBytes = 64 << 20

// ScanShare runs at most one physical pass per base relation and feeds the
// materialized rows to every scan opened under it — the shared-scan half
// of batch execution. The batch items (and the sub-queries within each
// item) all execute against one immutable statistics generation (the
// storage contract forbids mutation racing open cursors, and a Refresh
// swaps estimators without touching table data), so no MVCC machinery is
// needed: a row slice read once is correct for every consumer.
//
// Sharing leaves the block charge alone: it is computed from the FROM lists
// (charge), so per-item BlockReads are byte-identical to unshared
// execution. Only the physical passes collapse: the first opener goes
// through the normal Backend.Open — the storage.scan fault point and the
// per-table scan metrics, once for the pass — and later consumers read
// its rows.
//
// Failure is per-item, like sequential execution: the opener whose
// physical scan fails gets that error itself, and the relation's entry is
// poisoned so later consumers fall back to private scans (drawing their
// own fault-point decisions) rather than inheriting a failure that was
// never theirs.
type ScanShare struct {
	maxBytes int64

	mu   sync.Mutex
	ents map[string]*shareEntry

	physical atomic.Int64 // relations actually scanned once
	shared   atomic.Int64 // scan opens answered from a materialized pass
}

// shareEntry is one relation's shared pass: done closes when the first
// opener finished materializing (rows set) or failed (failed set).
type shareEntry struct {
	done   chan struct{}
	rows   []storage.Row
	failed bool
}

// NewScanShare returns a share for one batch. maxBytes ≤ 0 selects
// DefaultShareBytes.
func NewScanShare(maxBytes int64) *ScanShare {
	if maxBytes <= 0 {
		maxBytes = DefaultShareBytes
	}
	return &ScanShare{maxBytes: maxBytes, ents: make(map[string]*shareEntry)}
}

// Stats reports how many relations were physically scanned and how many
// scan opens were answered from a shared pass.
func (s *ScanShare) Stats() (physical, shared int64) {
	return s.physical.Load(), s.shared.Load()
}

type scanShareKey struct{}

// WithScanShare threads a batch's scan share through the context, exactly
// like iter.WithBudget threads the spill budget: sharing is an operational
// property of the request (the batch), not of any one evaluation call.
func WithScanShare(ctx context.Context, s *ScanShare) context.Context {
	return context.WithValue(ctx, scanShareKey{}, s)
}

// ScanShareFromContext returns the share installed by WithScanShare, or
// nil when scans are private.
func ScanShareFromContext(ctx context.Context) *ScanShare {
	s, _ := ctx.Value(scanShareKey{}).(*ScanShare)
	return s
}

// open returns a row stream over the relation through the share, or nil
// when there is no share, the relation is too big, or a previous opener's
// scan failed: the caller then opens its own private scan. A non-nil error
// is the caller's own failure — its physical pass died — never an adopted
// one.
func (s *ScanShare) open(ctx context.Context, t storage.Backend) (iter.Iterator, error) {
	if s == nil || t.Blocks()*int64(t.BlockSize()) > s.maxBytes {
		return nil, nil
	}
	name := t.Relation().Name
	s.mu.Lock()
	e, ok := s.ents[name]
	if !ok {
		e = &shareEntry{done: make(chan struct{})}
		s.ents[name] = e
		s.mu.Unlock()
		rows, err := materializeScan(ctx, t)
		if err != nil {
			e.failed = true
			close(e.done)
			return nil, err
		}
		e.rows = rows
		close(e.done)
		s.physical.Add(1)
		return iter.FromRowsContext(ctx, rows), nil
	}
	s.mu.Unlock()
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.failed {
		return nil, nil
	}
	s.shared.Add(1)
	return iter.FromRowsContext(ctx, e.rows), nil
}

// materializeScan runs the one physical pass: a normal Open (fault point,
// scan metrics) drained into a slice of the backend's own rows
// (storage.Cursor: they are immutable and may be retained).
func materializeScan(ctx context.Context, t storage.Backend) ([]storage.Row, error) {
	cur, err := t.Open()
	if err != nil {
		return nil, err
	}
	rows := make([]storage.Row, 0, t.RowCount())
	for n := 0; ; n++ {
		if n%64 == 0 {
			if err := ctx.Err(); err != nil {
				cur.Close()
				return nil, err
			}
		}
		r, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	return rows, cur.Close()
}
