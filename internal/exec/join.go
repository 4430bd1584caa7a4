package exec

import (
	"fmt"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// buildJoin compiles a join node. Equi-conjuncts of the ON condition
// become hash keys; remaining conjuncts are evaluated as a residual
// predicate on each candidate pair. Joins without any equi-key fall
// back to a nested loop. The streamed side (a hash join's probe input,
// a nested loop's left input) is borrowed: each of its rows is copied
// into the output before the next is read. The side a join keeps — the
// hash build, the nested loop's right input — is owned.
func (b *builder) buildJoin(t *plan.Join, borrowed bool) (Operator, error) {
	leftKeys, rightKeys, residual, err := JoinKeys(t)
	if err != nil {
		return nil, err
	}
	var hash bool
	switch t.Type {
	case ast.CrossJoin:
	case ast.InnerJoin, ast.LeftJoin, ast.RightJoin, ast.FullJoin:
		hash = len(leftKeys) > 0
		if !hash && t.Type != ast.InnerJoin {
			return nil, fmt.Errorf("outer join requires at least one equality condition between the two sides")
		}
	default:
		return nil, fmt.Errorf("unsupported join type %v", t.Type)
	}
	// Every join streams its left input except a right-outer hash join,
	// which builds the left and streams the right.
	streamLeft := !hash || t.Type != ast.RightJoin
	left, err := b.build(t.Left, borrowRows && streamLeft)
	if err != nil {
		return nil, err
	}
	right, err := b.build(t.Right, borrowRows && !streamLeft)
	if err != nil {
		return nil, err
	}
	slab := rowSlab{borrowed: borrowed}
	if !hash {
		return &nestedLoopOp{left: left, right: right, residual: residual, stats: b.stats, cancel: b.cc, slab: slab}, nil
	}
	return &hashJoinOp{
		typ: t.Type, left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		residual: residual, leftWidth: len(t.Left.Columns()), rightWidth: len(t.Right.Columns()),
		stats: b.stats, cancel: b.cc, cache: buildCacheOf(b.rt), slab: slab,
	}, nil
}

// splitEquiKey recognizes conjuncts of the form leftExpr = rightExpr
// where each side resolves entirely against one input (in either
// order). It returns the key expression for the left and right inputs.
func splitEquiKey(e ast.Expr, leftEnv, rightEnv *expr.Env) (lk, rk ast.Expr, ok bool) {
	b, isBin := e.(*ast.BinaryExpr)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	if ast.HasAggregate(b.L) || ast.HasAggregate(b.R) {
		return nil, nil, false
	}
	resolves := func(x ast.Expr, env *expr.Env) bool {
		_, err := expr.Compile(x, env)
		return err == nil
	}
	switch {
	case resolves(b.L, leftEnv) && resolves(b.R, rightEnv):
		return b.L, b.R, true
	case resolves(b.R, leftEnv) && resolves(b.L, rightEnv):
		return b.R, b.L, true
	}
	return nil, nil, false
}

// hashJoinOp implements inner, left-outer, right-outer and full-outer
// hash joins. The build side is the right input except for right-outer
// joins, where the left input is built and the right side streamed.
type hashJoinOp struct {
	typ                   ast.JoinType
	left, right           Operator
	leftKeys, rightKeys   []*expr.Compiled
	residual              *expr.Compiled
	leftWidth, rightWidth int
	stats                 *Stats
	cancel                *CancelChecker
	// cache, when set, keeps the build across executions of the plan:
	// the build side is a bare scan of an input the cache names
	// loop-invariant (see BuildCache).
	cache *BuildCache

	build            *hashBuild
	slab             rowSlab // backs every emitted row, borrowed or owned
	matched          []bool  // full outer: build rows some probe row matched
	probe            Operator
	probeRow         sqltypes.Row
	matches          []int32 // build row positions of the current probe key
	matchIdx         int
	emittedForProbe  bool
	leftoverIdx      int
	drainingLeftover bool
}

// hashBuild is the build side of a hash join in a compact, immutable
// layout: the rows in scan order, one group per distinct non-NULL key,
// and a CSR index listing each group's row positions in scan order
// (group g owns pos[start[g]:start[g+1]]). Rows with a NULL key belong
// to no group — NULL never matches — but stay in rows for full-outer
// leftovers. Nothing in it is per-operator state, so one build can
// serve every join that probes the same input.
type hashBuild struct {
	rows  []sqltypes.Row
	group map[sqltypes.CompositeKey]int32
	start []int32
	pos   []int32
	// cells is the total row length of a cached build over a result,
	// which every hit adds to Stats.ResultCellsRead.
	cells int64
}

// newHashBuild indexes rows by the given key expressions.
func newHashBuild(rows []sqltypes.Row, keys []*expr.Compiled) (*hashBuild, error) {
	b := &hashBuild{rows: rows, group: make(map[sqltypes.CompositeKey]int32)}
	gid := make([]int32, len(rows))
	var count []int32
	for i, r := range rows {
		key, null, err := evalKey(keys, r)
		if err != nil {
			return nil, err
		}
		if null {
			gid[i] = -1
			continue
		}
		g, ok := b.group[key]
		if !ok {
			g = int32(len(count))
			b.group[key] = g
			count = append(count, 0)
		}
		count[g]++
		gid[i] = g
	}
	b.start = make([]int32, len(count)+1)
	for g, c := range count {
		b.start[g+1] = b.start[g] + c
	}
	b.pos = make([]int32, b.start[len(count)])
	next := count // reused as each group's fill cursor
	copy(next, b.start)
	for i, g := range gid {
		if g >= 0 {
			b.pos[next[g]] = int32(i)
			next[g]++
		}
	}
	return b, nil
}

// lookup returns the positions of the build rows whose key equals key.
func (b *hashBuild) lookup(key sqltypes.CompositeKey) []int32 {
	g, ok := b.group[key]
	if !ok {
		return nil
	}
	return b.pos[b.start[g]:b.start[g+1]]
}

// buildIsLeft reports whether the left input is the build side.
func (h *hashJoinOp) buildIsLeft() bool { return h.typ == ast.RightJoin }

func (h *hashJoinOp) Open() error {
	var buildOp Operator
	var buildKeys []*expr.Compiled
	if h.buildIsLeft() {
		buildOp, buildKeys = h.left, h.leftKeys
		h.probe = h.right
	} else {
		buildOp, buildKeys = h.right, h.rightKeys
		h.probe = h.left
	}
	b, err := h.cache.build(buildOp, buildKeys)
	if err != nil {
		return err
	}
	h.build = b
	if h.typ == ast.FullJoin {
		h.matched = make([]bool, len(b.rows))
	}
	h.probeRow = nil
	h.matches = nil
	h.matchIdx = 0
	h.leftoverIdx = 0
	h.drainingLeftover = false
	return h.probe.Open()
}

// evalKey evaluates join key expressions over a row, reporting whether
// any component was NULL. Keys of up to three columns are evaluated
// into a fixed array and bare column references read straight off the
// row, so the common case allocates nothing.
func evalKey(keys []*expr.Compiled, r sqltypes.Row) (sqltypes.CompositeKey, bool, error) {
	var buf [3]sqltypes.Value
	var vals sqltypes.Row
	if len(keys) <= len(buf) {
		vals = buf[:len(keys)]
	} else {
		vals = make(sqltypes.Row, len(keys))
	}
	for i, k := range keys {
		var v sqltypes.Value
		if c, ok := k.Column(); ok && c < len(r) {
			v = r[c]
		} else {
			var err error
			if v, err = k.Eval(r); err != nil {
				return sqltypes.CompositeKey{}, false, err
			}
		}
		if v.IsNull() {
			return sqltypes.CompositeKey{}, true, nil
		}
		vals[i] = v
	}
	return sqltypes.ValuesKey(vals), false, nil
}

// combined builds the output row in left-then-right column order,
// cut from the operator's slab. A nil build row null-extends the build
// side.
func (h *hashJoinOp) combined(probe sqltypes.Row, build sqltypes.Row) sqltypes.Row {
	bw := len(build)
	if build == nil {
		bw = h.rightWidth
		if h.buildIsLeft() {
			bw = h.leftWidth
		}
	}
	out := h.slab.take(len(probe) + bw)
	buildSide, probeSide := out[len(probe):], out[:len(probe)]
	if h.buildIsLeft() {
		buildSide, probeSide = out[:bw], out[bw:]
	}
	copy(probeSide, probe)
	if build == nil {
		clear(buildSide) // zero Values are NULL
	} else {
		copy(buildSide, build)
	}
	return out
}

// outerProbe reports whether unmatched probe rows are emitted
// null-extended.
func (h *hashJoinOp) outerProbe() bool {
	return h.typ == ast.LeftJoin || h.typ == ast.RightJoin || h.typ == ast.FullJoin
}

func (h *hashJoinOp) Next() (sqltypes.Row, error) {
	for {
		if h.drainingLeftover {
			// Full-outer: emit unmatched build rows null-extended.
			for h.leftoverIdx < len(h.build.rows) {
				i := h.leftoverIdx
				h.leftoverIdx++
				if h.matched[i] {
					continue
				}
				h.stats.RowsJoined++
				return h.nullExtendBuild(h.build.rows[i]), nil
			}
			return nil, nil
		}

		// Continue emitting matches for the current probe row.
		for h.matchIdx < len(h.matches) {
			if err := h.cancel.Tick(); err != nil {
				return nil, err
			}
			i := h.matches[h.matchIdx]
			h.matchIdx++
			out := h.combined(h.probeRow, h.build.rows[i])
			if h.residual != nil {
				v, err := h.residual.Eval(out)
				if err != nil {
					return nil, err
				}
				if sqltypes.TriOf(v) != sqltypes.TriTrue {
					h.slab.untake(out)
					continue
				}
			}
			if h.matched != nil {
				h.matched[i] = true
			}
			h.emittedForProbe = true
			h.stats.RowsJoined++
			return out, nil
		}

		// The previous probe row is exhausted; emit its null-extended
		// form if it matched nothing and the join is outer.
		if h.probeRow != nil && !h.emittedForProbe && h.outerProbe() {
			out := h.combined(h.probeRow, nil)
			h.probeRow = nil
			h.stats.RowsJoined++
			return out, nil
		}

		// Advance to the next probe row.
		r, err := h.probe.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			if h.typ == ast.FullJoin {
				h.drainingLeftover = true
				continue
			}
			return nil, nil
		}
		h.probeRow = r
		h.emittedForProbe = false
		probeKeys := h.leftKeys
		if h.buildIsLeft() {
			probeKeys = h.rightKeys
		}
		key, null, err := evalKey(probeKeys, r)
		if err != nil {
			return nil, err
		}
		if null {
			h.matches = nil
		} else {
			h.matches = h.build.lookup(key)
		}
		h.matchIdx = 0
	}
}

// nullExtendBuild emits an unmatched build row (full-outer leftovers)
// with NULLs on the probe side, in left-then-right order.
func (h *hashJoinOp) nullExtendBuild(build sqltypes.Row) sqltypes.Row {
	pw := h.leftWidth
	if h.buildIsLeft() {
		pw = h.rightWidth
	}
	out := h.slab.take(len(build) + pw)
	if h.buildIsLeft() {
		clear(out[copy(out, build):])
	} else {
		clear(out[:pw])
		copy(out[pw:], build)
	}
	return out
}

func (h *hashJoinOp) Close() error {
	h.build = nil
	h.slab.release()
	h.matched = nil
	h.matches = nil
	return h.probe.Close()
}

// slabRows is the number of rows of a given width one owned rowSlab
// allocation holds: an operator emits an owned row at an amortized
// 1/slabRows allocations, and at most one partly used slab per operator
// outlives the rows cut from it.
const slabRows = 64

// rowSlab hands out an operator's output rows. An owned slab cuts
// fixed-width rows from a shared backing array; each row is capped at
// its width, so appending to it copies instead of overwriting its
// neighbour, and a row keeps its whole slab reachable for as long as
// anything retains it. A borrowed slab hands out one reused row: each
// take overwrites the row the previous take returned, which the
// consumer has finished with (see Operator).
type rowSlab struct {
	buf      []sqltypes.Value
	used     int
	borrowed bool
}

// take returns a row of width w. Its contents are unspecified: the
// caller overwrites every cell.
func (s *rowSlab) take(w int) sqltypes.Row {
	if s.borrowed {
		s.used = 0
	}
	if len(s.buf)-s.used < w {
		n := w
		if !s.borrowed {
			n *= slabRows
		}
		s.buf, s.used = make([]sqltypes.Value, n), 0
	}
	r := s.buf[s.used : s.used+w : s.used+w]
	s.used += w
	return r
}

// untake hands back r, the row the last take returned, when the caller
// drops it unseen; the next take reuses its cells.
func (s *rowSlab) untake(r sqltypes.Row) { s.used -= len(r) }

// release drops the backing array, keeping the mode.
func (s *rowSlab) release() { s.buf, s.used = nil, 0 }

// nestedLoopOp implements cross joins and inner joins without
// equi-keys. The right side is materialized; the left side streams.
type nestedLoopOp struct {
	left, right Operator
	residual    *expr.Compiled
	stats       *Stats
	cancel      *CancelChecker
	slab        rowSlab // backs every candidate pair

	rightRows []sqltypes.Row
	leftRow   sqltypes.Row
	rightIdx  int
}

func (n *nestedLoopOp) Open() error {
	rows, err := Drain(n.right)
	if err != nil {
		return err
	}
	n.rightRows = rows
	n.leftRow = nil
	n.rightIdx = 0
	return n.left.Open()
}

func (n *nestedLoopOp) Next() (sqltypes.Row, error) {
	for {
		if n.leftRow == nil {
			r, err := n.left.Next()
			if err != nil || r == nil {
				return nil, err
			}
			n.leftRow = r
			n.rightIdx = 0
		}
		for n.rightIdx < len(n.rightRows) {
			if err := n.cancel.Tick(); err != nil {
				return nil, err
			}
			rr := n.rightRows[n.rightIdx]
			n.rightIdx++
			out := n.slab.take(len(n.leftRow) + len(rr))
			copy(out[copy(out, n.leftRow):], rr)
			if n.residual != nil {
				v, err := n.residual.Eval(out)
				if err != nil {
					return nil, err
				}
				if sqltypes.TriOf(v) != sqltypes.TriTrue {
					n.slab.untake(out)
					continue
				}
			}
			n.stats.RowsJoined++
			return out, nil
		}
		n.leftRow = nil
	}
}

func (n *nestedLoopOp) Close() error {
	n.rightRows = nil
	n.slab.release()
	return n.left.Close()
}
