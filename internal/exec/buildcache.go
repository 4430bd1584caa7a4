package exec

import (
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/storage"
)

// BuildCache keeps hash-join builds over loop-invariant inputs for the
// length of one program run, so a join inside a loop body builds its
// hash table over such an input once instead of once per iteration.
// The run names the inputs that qualify; a join's build side is cached
// only when it is a bare scan of one of them and every build key is a
// bare column, and the entry is keyed by the scanned table object and
// the key column ordinals — so plans that alias the input differently
// share one build.
//
// A wrong input list can cost memory but never change results: a hit
// requires the very table object the build was made from, and neither
// base tables (during a program) nor published result tables are ever
// mutated in place. A build whose drain fails or is canceled is never
// inserted. The cache is safe for concurrent use by the parallel step
// scheduler's workers.
type BuildCache struct {
	inputs map[cacheInput]bool

	mu     sync.Mutex
	builds map[buildKey]*hashBuild
}

type cacheInput struct {
	base bool
	name string // storage.NormalizeName form
}

type buildKey struct {
	table *storage.Table
	n     int
	cols  [3]int
}

// NewBuildCache returns an empty cache that keeps builds over the named
// base tables and result slots.
func NewBuildCache(baseTables, results []string) *BuildCache {
	c := &BuildCache{inputs: make(map[cacheInput]bool, len(baseTables)+len(results))}
	for _, n := range baseTables {
		c.inputs[cacheInput{base: true, name: storage.NormalizeName(n)}] = true
	}
	for _, n := range results {
		c.inputs[cacheInput{name: storage.NormalizeName(n)}] = true
	}
	return c
}

// Len returns the number of builds the cache holds.
func (c *BuildCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.builds)
}

// Reset drops every build. The retry driver calls it when it restores
// a checkpoint, and a run when it ends.
func (c *BuildCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.builds = nil
	c.mu.Unlock()
}

// build returns the hash build of op keyed by keys: from the cache when
// op is a cacheable scan already built this run, otherwise by draining
// op (and, when cacheable, keeping the result). A nil cache always
// drains.
func (c *BuildCache) build(op Operator, keys []*expr.Compiled) (*hashBuild, error) {
	scan, ok := op.(*scanOp)
	if c == nil || !ok || !c.inputs[cacheInput{base: scan.base, name: storage.NormalizeName(scan.name)}] {
		return drainBuild(op, keys)
	}
	key := buildKey{n: len(keys)}
	if len(keys) > len(key.cols) {
		return drainBuild(op, keys)
	}
	for i, k := range keys {
		col, bare := k.Column()
		if !bare {
			return drainBuild(op, keys)
		}
		key.cols[i] = col
	}
	t, err := scan.table()
	if err != nil {
		return nil, err
	}
	key.table = t
	c.mu.Lock()
	b := c.builds[key]
	c.mu.Unlock()
	if b != nil {
		// A hit is not a scan: RowsScanned stays put. ResultCellsRead
		// measures how wide the data a plan consumes from results is
		// (the column-pruning metric), so the join's use of the build
		// still counts.
		if !scan.base {
			scan.stats.ResultCellsRead += b.cells
		}
		return b, nil
	}
	// Drain the table just resolved, so the build matches its key.
	scan.openOn(t)
	rows, err := drainOpen(scan)
	if err != nil {
		return nil, err
	}
	if b, err = newHashBuild(rows, keys); err != nil {
		return nil, err
	}
	if !scan.base {
		for _, r := range rows {
			b.cells += int64(len(r))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.builds[key]; prev != nil {
		return prev, nil // a concurrent step built it first
	}
	if c.builds == nil {
		c.builds = make(map[buildKey]*hashBuild)
	}
	c.builds[key] = b
	return b, nil
}

// drainBuild builds op's rows without caching them.
func drainBuild(op Operator, keys []*expr.Compiled) (*hashBuild, error) {
	rows, err := Drain(op)
	if err != nil {
		return nil, err
	}
	return newHashBuild(rows, keys)
}
