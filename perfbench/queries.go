package main

import "fmt"

// The query texts are the benchmark's own copies of the paper's
// figures, so editing the engine's internal query builders cannot
// change what is measured.

// prQuery is the PageRank query of Figure 2. With vs it is PR-VS,
// which only lets join rows ending at an available node contribute.
func prQuery(iterations int, vs bool) string {
	join, where := "", ""
	if vs {
		join = `
    JOIN vertexStatus AS avail_pr ON avail_pr.node = IncomingEdges.dst`
		where = `
  WHERE avail_pr.status != 0`
	}
	return fmt.Sprintf(`WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src%s%s
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL %d ITERATIONS )
SELECT Node, Rank FROM PageRank`, join, where, iterations)
}

// ssspVSQuery is the shortest-path query of Figure 7 with the
// vertexStatus join of the Figure 9/11 experiments.
func ssspVSQuery(source int64, iterations int) string {
	return fmt.Sprintf(`WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL %d ITERATIONS)
SELECT Node, Distance FROM sssp`, source, iterations)
}

// procStmt is one statement of a stored procedure and the engine call
// that runs it.
type procStmt struct {
	kind string // ddl, insert, update, delete or select
	sql  string
}

// ssspVSProc is the stored-procedure form of ssspVSQuery (Figure 11):
// the same loop as a sequence of statements, each parsed, planned,
// locked and logged on its own. The last statement is the final
// SELECT; the two after it drop the working tables.
func ssspVSProc(source int64, iterations int) []procStmt {
	stmts := []procStmt{
		{"ddl", "CREATE TABLE sp_sssp (node int, distance float, delta float)"},
		{"ddl", "CREATE TABLE sp_sssp_inter (node int, distance float, delta float)"},
		{"insert", fmt.Sprintf(`INSERT INTO sp_sssp
 SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)`, source)},
	}
	for i := 0; i < iterations; i++ {
		stmts = append(stmts,
			procStmt{"delete", "DELETE FROM sp_sssp_inter"},
			procStmt{"insert", `INSERT INTO sp_sssp_inter
  SELECT sp_sssp.node,
    LEAST(sp_sssp.distance, sp_sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sp_sssp
   LEFT JOIN edges AS IncomingEdges ON sp_sssp.node = IncomingEdges.dst
   LEFT JOIN sp_sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY sp_sssp.node, LEAST(sp_sssp.distance, sp_sssp.delta)`},
			procStmt{"update", `UPDATE sp_sssp SET distance = sp_sssp_inter.distance, delta = sp_sssp_inter.delta
 FROM sp_sssp_inter WHERE sp_sssp.node = sp_sssp_inter.node`})
	}
	return append(stmts,
		procStmt{"select", "SELECT node, distance FROM sp_sssp"},
		procStmt{"ddl", "DROP TABLE sp_sssp"},
		procStmt{"ddl", "DROP TABLE sp_sssp_inter"})
}
