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
// back to a nested loop.
func buildJoin(t *plan.Join, rt Runtime, stats *Stats, cc *CancelChecker) (Operator, error) {
	left, err := buildWith(t.Left, rt, stats, cc)
	if err != nil {
		return nil, err
	}
	right, err := buildWith(t.Right, rt, stats, cc)
	if err != nil {
		return nil, err
	}
	lw, rw := len(t.Left.Columns()), len(t.Right.Columns())

	leftKeys, rightKeys, residual, err := JoinKeys(t)
	if err != nil {
		return nil, err
	}

	switch t.Type {
	case ast.CrossJoin:
		return &nestedLoopOp{left: left, right: right, residual: residual, stats: stats, cancel: cc}, nil
	case ast.InnerJoin, ast.LeftJoin, ast.RightJoin, ast.FullJoin:
		if len(leftKeys) == 0 {
			if t.Type == ast.InnerJoin {
				return &nestedLoopOp{left: left, right: right, residual: residual, stats: stats, cancel: cc}, nil
			}
			return nil, fmt.Errorf("outer join requires at least one equality condition between the two sides")
		}
		return &hashJoinOp{
			typ: t.Type, left: left, right: right,
			leftKeys: leftKeys, rightKeys: rightKeys,
			residual: residual, leftWidth: lw, rightWidth: rw,
			stats: stats, cancel: cc, cache: buildCacheOf(rt),
		}, nil
	}
	return nil, fmt.Errorf("unsupported join type %v", t.Type)
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
	matched          []bool // full outer: build rows some probe row matched
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

// combined builds the output row in left-then-right column order.
func (h *hashJoinOp) combined(probe sqltypes.Row, build sqltypes.Row) sqltypes.Row {
	out := make(sqltypes.Row, 0, h.leftWidth+h.rightWidth)
	if h.buildIsLeft() {
		if build == nil {
			out = out[:h.leftWidth] // zero Values are NULL
		} else {
			out = append(out, build...)
		}
		out = append(out, probe...)
	} else {
		out = append(out, probe...)
		if build == nil {
			out = append(out, make(sqltypes.Row, h.rightWidth)...)
		} else {
			out = append(out, build...)
		}
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
	out := make(sqltypes.Row, 0, h.leftWidth+h.rightWidth)
	if h.buildIsLeft() {
		out = append(out, build...)
		out = append(out, make(sqltypes.Row, h.rightWidth)...)
	} else {
		out = append(out, make(sqltypes.Row, h.leftWidth)...)
		out = append(out, build...)
	}
	return out
}

func (h *hashJoinOp) Close() error {
	h.build = nil
	h.matched = nil
	h.matches = nil
	return h.probe.Close()
}

// nestedLoopOp implements cross joins and inner joins without
// equi-keys. The right side is materialized; the left side streams.
type nestedLoopOp struct {
	left, right Operator
	residual    *expr.Compiled
	stats       *Stats
	cancel      *CancelChecker

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
			out := make(sqltypes.Row, 0, len(n.leftRow)+len(rr))
			out = append(out, n.leftRow...)
			out = append(out, rr...)
			if n.residual != nil {
				v, err := n.residual.Eval(out)
				if err != nil {
					return nil, err
				}
				if sqltypes.TriOf(v) != sqltypes.TriTrue {
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
	return n.left.Close()
}
