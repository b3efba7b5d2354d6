package exec

import (
	"testing"

	"cqp/internal/iter"
	"cqp/internal/storage"
	"cqp/internal/value"
)

// poison enforces iter.Iterator's ownership rule from the outside: it hands
// out each source row as a private copy and, on the next call, overwrites
// that copy with sentinels. An operator that holds on to a row past its
// source's next Next — instead of copying it — then computes with sentinels
// and changes an answer. (It copies because a leaf scan's rows are the
// table's own, which nobody may write; and since it does not claim its rows
// may be retained, every keeper above it must copy.)
type poison struct {
	src  iter.Iterator
	last storage.Row
}

func (p *poison) kill() {
	for i := range p.last {
		p.last[i] = value.Str("\x00poisoned")
	}
}

func (p *poison) Next() (storage.Row, bool, error) {
	p.kill()
	r, ok, err := p.src.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	p.last = r.Clone()
	return p.last, true, nil
}

func (p *poison) Close() error {
	p.kill()
	return p.src.Close()
}

// TestRowOwnership reruns the golden grid — mem, disk, spilled and shared
// scans — with the output of every operator the executor builds poisoned
// (scans, filters, joins, cross products, projections, DISTINCT, LIMIT):
// the answers must still be the recorded ones, bit for bit.
func TestRowOwnership(t *testing.T) {
	defer func(identity func(iter.Iterator) iter.Iterator) { op = identity }(op)
	op = func(it iter.Iterator) iter.Iterator { return &poison{src: it} }
	checkGolden(t, goldenExecRuns(t))
}
