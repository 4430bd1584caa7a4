// Package exec implements the physical operators: volcano-style
// iterators compiled from logical plans. Joins are hash joins with
// equi-key extraction (falling back to nested loops), aggregation is
// hash-based, and every operator follows SQL NULL semantics.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Runtime supplies table data to operators at execution time.
type Runtime interface {
	// BaseTable resolves a catalog table.
	BaseTable(name string) (*storage.Table, error)
	// Result resolves a named intermediate result.
	Result(name string) (*storage.Table, error)
}

// Stats accumulates execution counters, used by the benchmarks and the
// data-movement experiments.
type Stats struct {
	// RowsScanned counts rows read from base tables and results. A
	// hash join whose build comes from a BuildCache does not rescan
	// its build input, so those rows are counted once per run, when
	// the build is made, not once per execution of the join.
	RowsScanned int64
	RowsJoined  int64 // rows emitted by joins
	RowsGrouped int64 // groups emitted by aggregates
	// RowsAggInput counts rows fed INTO aggregate operators — the
	// input-side metric the incremental-aggregate-maintenance
	// experiment reports (a maintained plan aggregates only the
	// affected groups' rows, a full plan everything).
	RowsAggInput int64
	// ResultCellsRead counts cells (row length per row) read from
	// materialized intermediate results — the read-side half of the
	// column-pruning experiment's data-movement metric (the write side
	// is core.Stats.MaterializedCells). It measures the width of the
	// data plans consume, so a join served from a BuildCache counts
	// its build's cells on every execution, as a rescan would.
	ResultCellsRead int64
}

// Operator is a volcano-style iterator. Next returns nil at end of
// stream.
//
// Row ownership: an operator's rows are owned or borrowed, as the
// builder decides from its consumer. An owned row is the caller's to
// keep: no operator writes to it again. A borrowed row is valid only
// until the caller's next call to Next on the same operator, which may
// overwrite it in place. The builder hands out borrowed rows only to
// consumers that keep none past that call — an aggregate's input, a
// hash join's probe input, a nested loop's left input and a project's
// input — and passes the mode through filter, trim, union and limit.
// Every other input, and the root of every tree Build returns, is
// owned (DESIGN.md §5j).
type Operator interface {
	Open() error
	Next() (sqltypes.Row, error)
	Close() error
}

// Drain runs an operator to completion and returns all rows.
func Drain(op Operator) ([]sqltypes.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	return drainOpen(op)
}

// drainOpen drains an already opened operator and closes it.
func drainOpen(op Operator) ([]sqltypes.Row, error) {
	defer op.Close()
	var out []sqltypes.Row
	for {
		r, err := op.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// Build compiles a logical plan into an operator tree.
func Build(n plan.Node, rt Runtime, stats *Stats) (Operator, error) {
	return newBuilder(rt, stats, nil).build(n, false)
}

// BuildContext compiles a plan whose scan and join inner loops poll
// ctx at a coarse row stride, so a canceled or timed-out query stops
// mid-scan instead of finishing the operator it is inside.
func BuildContext(ctx context.Context, n plan.Node, rt Runtime, stats *Stats) (Operator, error) {
	return newBuilder(rt, stats, NewCancelChecker(ctx)).build(n, false)
}

// borrowRows is a test seam: the row-ownership parity tests turn it
// off so that every operator emits owned rows, and compare.
var borrowRows = true

// builder is the recursive plan compiler. Its cancel checker (possibly
// nil) is shared by every operator of the tree — execution is
// single-threaded.
type builder struct {
	rt    Runtime
	stats *Stats
	cc    *CancelChecker
}

func newBuilder(rt Runtime, stats *Stats, cc *CancelChecker) *builder {
	if stats == nil {
		stats = &Stats{}
	}
	return &builder{rt: rt, stats: stats, cc: cc}
}

// build compiles n. borrowed reports that n's consumer keeps none of
// n's rows past its next call to Next, so n may emit borrowed rows
// (see Operator).
func (b *builder) build(n plan.Node, borrowed bool) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &scanOp{name: t.Table, base: true, rt: b.rt, stats: b.stats, cancel: b.cc}, nil
	case *plan.NamedResult:
		return &scanOp{name: t.Name, base: false, rt: b.rt, stats: b.stats, cancel: b.cc}, nil
	case *plan.OneRow:
		return &oneRowOp{}, nil
	case *plan.Alias:
		return b.build(t.Input, borrowed)
	case *plan.Filter:
		in, err := b.build(t.Input, borrowed)
		if err != nil {
			return nil, err
		}
		cond, err := expr.Compile(t.Cond, planEnv(t.Input))
		if err != nil {
			return nil, err
		}
		return &filterOp{input: in, cond: cond}, nil
	case *plan.Project:
		in, err := b.build(t.Input, borrowRows)
		if err != nil {
			return nil, err
		}
		e := planEnv(t.Input)
		items := make([]*expr.Compiled, len(t.Items))
		for i, it := range t.Items {
			c, err := expr.Compile(it.Expr, e)
			if err != nil {
				return nil, err
			}
			items[i] = c
		}
		return &projectOp{input: in, items: items, slab: rowSlab{borrowed: borrowed}}, nil
	case *plan.Join:
		return b.buildJoin(t, borrowed)
	case *plan.Aggregate:
		return b.buildAggregate(t)
	case *plan.Union:
		l, err := b.build(t.Left, borrowed)
		if err != nil {
			return nil, err
		}
		r, err := b.build(t.Right, borrowed)
		if err != nil {
			return nil, err
		}
		return &unionOp{left: l, right: r}, nil
	case *plan.Distinct:
		in, err := b.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		return &distinctOp{input: in}, nil
	case *plan.Sort:
		in, err := b.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		return &sortOp{input: in, keys: t.Keys}, nil
	case *plan.Limit:
		in, err := b.build(t.Input, borrowed)
		if err != nil {
			return nil, err
		}
		return &limitOp{input: in, n: t.N, offset: t.Offset}, nil
	case *plan.TopN:
		in, err := b.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		return &topNOp{input: in, keys: t.Keys, n: t.N, offset: t.Offset}, nil
	case *plan.EmptyNode:
		return emptyOp{}, nil
	case *plan.Trim:
		in, err := b.build(t.Input, borrowed)
		if err != nil {
			return nil, err
		}
		return &trimOp{input: in, keep: t.Keep}, nil
	case *plan.ValuesNode:
		rows := make([]sqltypes.Row, len(t.Rows))
		emptyEnv := &expr.Env{}
		for i, exprs := range t.Rows {
			row := make(sqltypes.Row, len(exprs))
			for j, e := range exprs {
				c, err := expr.Compile(e, emptyEnv)
				if err != nil {
					return nil, err
				}
				v, err := c.Eval(nil)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return &rowsOp{rows: rows}, nil
	}
	return nil, fmt.Errorf("unsupported plan node %T", n)
}

// Run builds and drains a plan in one call.
func Run(n plan.Node, rt Runtime, stats *Stats) ([]sqltypes.Row, error) {
	return RunContext(nil, n, rt, stats)
}

// RunContext builds and drains a plan whose hot loops poll ctx at a
// coarse row stride; a fired context surfaces as ctx.Err(). A nil ctx
// keeps the zero-cost uncancellable path.
func RunContext(ctx context.Context, n plan.Node, rt Runtime, stats *Stats) ([]sqltypes.Row, error) {
	op, err := BuildContext(ctx, n, rt, stats)
	if err != nil {
		return nil, err
	}
	return Drain(op)
}

// Materialize executes a plan into a fresh storage table with the
// given name and partition count. Like base tables, intermediate
// results are hash-distributed on their first column: the physical
// layout is then a function of row content alone, so a plan rewrite
// that adds or removes rows cannot permute the scan-back order of the
// rows both plans produce (order-sensitive float aggregation stays
// bit-identical across optimizer variants).
func Materialize(n plan.Node, rt Runtime, stats *Stats, name string, parts int) (*storage.Table, error) {
	return MaterializeContext(nil, n, rt, stats, name, parts)
}

// MaterializeContext is Materialize over a cancelable context: the
// plan's hot loops poll ctx at a coarse row stride. A nil ctx keeps
// the zero-cost uncancellable path.
func MaterializeContext(ctx context.Context, n plan.Node, rt Runtime, stats *Stats, name string, parts int) (*storage.Table, error) {
	rows, err := RunContext(ctx, n, rt, stats)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(name, plan.Schema(n), parts)
	if len(t.Schema) > 0 {
		t.DistCol = 0
	}
	t.InsertBatch(rows)
	return t, nil
}

// planEnv builds the expression environment for a node's output.
func planEnv(n plan.Node) *expr.Env {
	e := &expr.Env{}
	for i, c := range n.Columns() {
		e.Cols = append(e.Cols, expr.Binding{
			Table: strings.ToLower(c.Table),
			Name:  strings.ToLower(c.Name),
			Index: i,
			Type:  c.Type,
		})
	}
	return e
}

// --- scan --------------------------------------------------------------

type scanOp struct {
	name   string
	base   bool
	rt     Runtime
	stats  *Stats
	cancel *CancelChecker

	// parts snapshots the table's partition slices at Open; the slices
	// themselves are stable (steps always materialize into fresh
	// tables, and DML drains its scans before mutating), so no row
	// copying is needed.
	parts [][]sqltypes.Row
	pi    int
	pos   int
}

func (s *scanOp) Open() error {
	t, err := s.table()
	if err != nil {
		return err
	}
	s.openOn(t)
	return nil
}

// table resolves the scanned base table or result.
func (s *scanOp) table() (*storage.Table, error) {
	if s.base {
		return s.rt.BaseTable(s.name)
	}
	return s.rt.Result(s.name)
}

// openOn positions the scan at the start of t.
func (s *scanOp) openOn(t *storage.Table) {
	s.parts = append(s.parts[:0], t.Parts...)
	s.pi, s.pos = 0, 0
}

func (s *scanOp) Next() (sqltypes.Row, error) {
	if err := s.cancel.Tick(); err != nil {
		return nil, err
	}
	for s.pi < len(s.parts) {
		part := s.parts[s.pi]
		if s.pos < len(part) {
			r := part[s.pos]
			s.pos++
			s.stats.RowsScanned++
			if !s.base {
				s.stats.ResultCellsRead += int64(len(r))
			}
			return r, nil
		}
		s.pi++
		s.pos = 0
	}
	return nil, nil
}

func (s *scanOp) Close() error {
	s.parts = nil
	return nil
}

// --- trivial operators --------------------------------------------------

type oneRowOp struct{ done bool }

func (o *oneRowOp) Open() error { o.done = false; return nil }
func (o *oneRowOp) Next() (sqltypes.Row, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return sqltypes.Row{}, nil
}
func (o *oneRowOp) Close() error { return nil }

type rowsOp struct {
	rows []sqltypes.Row
	pos  int
}

func (r *rowsOp) Open() error { r.pos = 0; return nil }
func (r *rowsOp) Next() (sqltypes.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	row := r.rows[r.pos]
	r.pos++
	return row, nil
}
func (r *rowsOp) Close() error { return nil }

type filterOp struct {
	input Operator
	cond  *expr.Compiled
}

func (f *filterOp) Open() error { return f.input.Open() }
func (f *filterOp) Next() (sqltypes.Row, error) {
	for {
		r, err := f.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		v, err := f.cond.Eval(r)
		if err != nil {
			return nil, err
		}
		if sqltypes.TriOf(v) == sqltypes.TriTrue {
			return r, nil
		}
	}
}
func (f *filterOp) Close() error { return f.input.Close() }

type projectOp struct {
	input Operator
	items []*expr.Compiled
	slab  rowSlab // backs every emitted row
}

func (p *projectOp) Open() error { return p.input.Open() }
func (p *projectOp) Next() (sqltypes.Row, error) {
	r, err := p.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	out := p.slab.take(len(p.items))
	for i, it := range p.items {
		v, err := it.Eval(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
func (p *projectOp) Close() error {
	p.slab.release()
	return p.input.Close()
}

type trimOp struct {
	input Operator
	keep  int
}

func (t *trimOp) Open() error { return t.input.Open() }
func (t *trimOp) Next() (sqltypes.Row, error) {
	r, err := t.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	return r[:t.keep], nil
}
func (t *trimOp) Close() error { return t.input.Close() }

type unionOp struct {
	left, right Operator
	onRight     bool
}

func (u *unionOp) Open() error {
	u.onRight = false
	if err := u.left.Open(); err != nil {
		return err
	}
	return u.right.Open()
}

func (u *unionOp) Next() (sqltypes.Row, error) {
	if !u.onRight {
		r, err := u.left.Next()
		if err != nil {
			return nil, err
		}
		if r != nil {
			return r, nil
		}
		u.onRight = true
	}
	return u.right.Next()
}

func (u *unionOp) Close() error {
	err1 := u.left.Close()
	err2 := u.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type distinctOp struct {
	input Operator
	seen  map[sqltypes.CompositeKey]bool
}

func (d *distinctOp) Open() error {
	d.seen = make(map[sqltypes.CompositeKey]bool)
	return d.input.Open()
}

func (d *distinctOp) Next() (sqltypes.Row, error) {
	for {
		r, err := d.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		k := sqltypes.ValuesKey(r)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return r, nil
	}
}

func (d *distinctOp) Close() error {
	d.seen = nil
	return d.input.Close()
}

type sortOp struct {
	input Operator
	keys  []plan.SortKey

	rows []sqltypes.Row
	pos  int
}

func (s *sortOp) Open() error {
	rows, err := Drain(s.input)
	if err != nil {
		return err
	}
	keys := s.keys
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := sqltypes.Compare(rows[i][k.Col], rows[j][k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	s.rows = rows
	s.pos = 0
	return nil
}

func (s *sortOp) Next() (sqltypes.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sortOp) Close() error {
	s.rows = nil
	return nil
}

type limitOp struct {
	input   Operator
	n       int64
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open()
}

func (l *limitOp) Next() (sqltypes.Row, error) {
	for l.skipped < l.offset {
		r, err := l.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.n >= 0 && l.emitted >= l.n {
		return nil, nil
	}
	r, err := l.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	l.emitted++
	return r, nil
}

func (l *limitOp) Close() error { return l.input.Close() }

// --- aggregation --------------------------------------------------------

// aggState is one group: its output row, whose first columns hold the
// group values and whose aggregate columns are filled at the end, and
// the group's accumulators.
type aggState struct {
	row  sqltypes.Row
	aggs []expr.Aggregator
}

type aggOp struct {
	node  *plan.Aggregate
	rt    Runtime
	stats *Stats

	input   Operator
	groupEx []*expr.Compiled
	argEx   []*expr.Compiled // nil entries for COUNT(*)
	out     []sqltypes.Row
	pos     int
}

// buildAggregate compiles an aggregate. Its input is borrowed: group
// values and aggregate arguments are copied out of each row.
func (b *builder) buildAggregate(t *plan.Aggregate) (Operator, error) {
	in, err := b.build(t.Input, borrowRows)
	if err != nil {
		return nil, err
	}
	e := planEnv(t.Input)
	op := &aggOp{node: t, rt: b.rt, stats: b.stats, input: in}
	for _, g := range t.GroupBy {
		c, err := expr.Compile(g, e)
		if err != nil {
			return nil, err
		}
		op.groupEx = append(op.groupEx, c)
	}
	for _, a := range t.Aggs {
		if a.Star {
			op.argEx = append(op.argEx, nil)
			continue
		}
		c, err := expr.Compile(a.Arg, e)
		if err != nil {
			return nil, err
		}
		op.argEx = append(op.argEx, c)
	}
	return op, nil
}

// newGroup starts a group with the given group values, which it
// copies: the caller reuses its buffer for the next input row.
func (a *aggOp) newGroup(groupVals sqltypes.Row) (*aggState, error) {
	st := &aggState{
		row:  make(sqltypes.Row, len(groupVals)+len(a.node.Aggs)),
		aggs: make([]expr.Aggregator, len(a.node.Aggs)),
	}
	copy(st.row, groupVals)
	for i, spec := range a.node.Aggs {
		ag, err := expr.NewAggregator(spec.Name, spec.Star, spec.Distinct)
		if err != nil {
			return nil, err
		}
		st.aggs[i] = ag
	}
	return st, nil
}

func (a *aggOp) Open() error {
	if err := a.input.Open(); err != nil {
		return err
	}
	defer a.input.Close()

	groups := make(map[sqltypes.CompositeKey]*aggState)
	var order []*aggState
	groupVals := make(sqltypes.Row, len(a.groupEx))
	for {
		r, err := a.input.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		a.stats.RowsAggInput++
		for i, g := range a.groupEx {
			if groupVals[i], err = g.Eval(r); err != nil {
				return err
			}
		}
		key := sqltypes.ValuesKey(groupVals)
		st, ok := groups[key]
		if !ok {
			if st, err = a.newGroup(groupVals); err != nil {
				return err
			}
			groups[key] = st
			order = append(order, st)
		}
		for i, spec := range a.node.Aggs {
			var v sqltypes.Value
			if spec.Star {
				v = sqltypes.NewBool(true) // any non-null marker
			} else {
				v, err = a.argEx[i].Eval(r)
				if err != nil {
					return err
				}
			}
			if err := st.aggs[i].Add(v); err != nil {
				return err
			}
		}
	}

	// Scalar aggregate over an empty input still yields one row.
	if len(a.groupEx) == 0 && len(order) == 0 {
		st, err := a.newGroup(nil)
		if err != nil {
			return err
		}
		order = append(order, st)
	}

	a.out = make([]sqltypes.Row, len(order))
	for i, st := range order {
		for j, ag := range st.aggs {
			st.row[len(a.groupEx)+j] = ag.Result()
		}
		a.out[i] = st.row
	}
	a.stats.RowsGrouped += int64(len(a.out))
	a.pos = 0
	return nil
}

func (a *aggOp) Next() (sqltypes.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

func (a *aggOp) Close() error {
	a.out = nil
	return nil
}
