package iter

import (
	"context"

	"cqp/internal/storage"
)

// Distinct emits each distinct row once: it is a grouper with no tags. The
// first Next reads all of src into the grouper, so nothing is emitted before
// the input ends; the groups then come in first-appearance order while the
// table fits the context budget, partition by partition once it spilled. The
// rows it emits are the grouper's, valid until the next Next.
func Distinct(ctx context.Context, src Iterator) Iterator {
	return &distinctIter{src: src, g: NewGrouper(ctx, 0)}
}

type distinctIter struct {
	src    Iterator
	g      *Grouper
	filled bool
}

func (it *distinctIter) Next() (storage.Row, bool, error) {
	for !it.filled {
		row, ok, err := it.src.Next()
		if err == nil && ok {
			err = it.g.AddMask(row, nil)
		}
		if err != nil {
			return nil, false, err
		}
		it.filled = !ok
	}
	return it.g.Next()
}

func (it *distinctIter) Close() error { return closeAll(it.src, it.g) }
