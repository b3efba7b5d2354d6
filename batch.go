package cqp

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"cqp/internal/exec"
)

// BatchItem is one personalization request in a PersonalizeBatch call.
type BatchItem struct {
	Query   *Query
	Profile *Profile
	Problem Problem
	Opts    []Option
}

// BatchResult is the outcome of one BatchItem, aligned by index with the
// input slice. Exactly one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
	// Exec holds the executed personalized query's ranked answer when the
	// batch ran through ExecuteBatch; nil under PersonalizeBatch.
	Exec *exec.UnionResult
	// Duplicate reports that this item was coalesced with an earlier
	// identical item: its Result/Err are shared with that item's, and no
	// extra pipeline run was spent on it.
	Duplicate bool
}

// fingerprint derives the batch-dedup identity of an item: the query's
// canonical fingerprint and its DISTINCT flag (which the fingerprint leaves
// out, and an item that integrates no preference answers with Q itself),
// the profile text, the problem, and the resolved options — written as
// explicit named fields, not a %+v of the options struct, so a field rename
// or reorder can never silently change dedup identity. Two items with equal
// fingerprints would run the exact same pipeline, so one run can answer
// both.
func (it BatchItem) fingerprint() string {
	o := defaultOptions()
	for _, fn := range it.Opts {
		fn(&o)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|d=%v|%s|%s|a=%s k=%d any=%v merge=%v b=%d",
		it.Query.Fingerprint(), it.Query.Distinct, it.Profile.String(), it.Problem,
		o.algorithm, o.maxK, o.anyMatch, o.merge, o.budget)
	return fmt.Sprintf("%016x", h.Sum64())
}

// dedupBatch partitions items into leaders (first item per fingerprint)
// and followers, recording input errors for invalid items.
func dedupBatch(items []BatchItem, out []BatchResult) (leaders []int, followers map[int][]int) {
	leaders = make([]int, 0, len(items))
	leaderOf := make(map[string]int, len(items))
	followers = make(map[int][]int)
	for i, it := range items {
		if it.Query == nil || it.Profile == nil {
			out[i].Err = fmt.Errorf("cqp: batch item %d: query and profile are required", i)
			continue
		}
		fp := it.fingerprint()
		if li, ok := leaderOf[fp]; ok {
			followers[li] = append(followers[li], i)
			continue
		}
		leaderOf[fp] = i
		leaders = append(leaders, i)
	}
	return leaders, followers
}

// runBatch drives run over the leader indices across a bounded worker
// group, then copies leader outcomes onto followers.
func runBatch(leaders []int, followers map[int][]int, out []BatchResult, parallelism int, run func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(leaders) {
		workers = len(leaders)
	}
	if workers <= 1 {
		for _, i := range leaders {
			run(i)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range work {
					run(i)
				}
			}()
		}
		for _, i := range leaders {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for li, dups := range followers {
		for _, i := range dups {
			out[i] = out[li]
			out[i].Duplicate = true
		}
	}
}

// PersonalizeBatch personalizes many (query, profile, problem) items in one
// call — the serving shape of a list page, where one screen fans into many
// closely related personalizations. Items are deduplicated by fingerprint
// (query + profile + problem + options) so each distinct pipeline runs
// once, distinct items run across a bounded worker group (parallelism ≤ 0
// selects GOMAXPROCS), and results come back in input order, one per item,
// with per-item errors: a malformed item fails alone without poisoning its
// batch. Distinct items also share work below the dedup layer: every
// per-preference cost/shrink estimate lands in the estimator's
// cross-request memo, so items over the same relations re-estimate nothing.
// A canceled ctx aborts the underlying personalizations with its error.
func (p *Personalizer) PersonalizeBatch(ctx context.Context, items []BatchItem, parallelism int) []BatchResult {
	out := make([]BatchResult, len(items))
	leaders, followers := dedupBatch(items, out)
	runBatch(leaders, followers, out, parallelism, func(i int) {
		it := items[i]
		out[i].Result, out[i].Err = p.PersonalizeContext(ctx, it.Query, it.Profile, it.Problem, it.Opts...)
	})
	return out
}

// ExecuteBatch is PersonalizeBatch plus execution: each distinct item's
// personalized query runs against the database and BatchResult.Exec holds
// its ranked answer. All items execute under one scan share — one physical
// pass per base relation feeds every item's (and every sub-query's) filter
// tree, while each item is still charged the cost model's block count for
// every relation it names — so a batch of distinct items over the same tables reads
// each table once instead of items × sub-queries times. The share is valid
// because the batch runs inside one statistics generation: the storage
// contract keeps tables immutable while cursors are open, so no MVCC is
// needed. shareBytes caps the per-relation materialization (≤ 0 selects
// exec.DefaultShareBytes); oversized relations fall back to private
// streaming scans.
func (p *Personalizer) ExecuteBatch(ctx context.Context, items []BatchItem, parallelism int, shareBytes int64) []BatchResult {
	out := make([]BatchResult, len(items))
	leaders, followers := dedupBatch(items, out)
	ctx = exec.WithScanShare(ctx, exec.NewScanShare(shareBytes))
	runBatch(leaders, followers, out, parallelism, func(i int) {
		it := items[i]
		res, err := p.PersonalizeContext(ctx, it.Query, it.Profile, it.Problem, it.Opts...)
		if err != nil {
			out[i].Err = err
			return
		}
		rows, err := res.ExecuteContext(ctx)
		if err != nil {
			out[i].Err = err
			return
		}
		out[i].Result, out[i].Exec = res, rows
	})
	return out
}
