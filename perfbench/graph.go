package main

import (
	"math"
	"math/rand"
	"sort"

	"dbspinner/internal/graphalgo"
	"dbspinner/internal/sqltypes"
)

// weightMode selects how edge weights are drawn.
type weightMode int

const (
	// rankWeights sets weight(src->dst) = 1/outdegree(src), the
	// normalization PageRank expects.
	rankWeights weightMode = iota
	// pathWeights draws one weight per undirected edge uniformly from
	// [1, 10), the shape SSSP expects; both directions share it.
	pathWeights
)

// graph is a bidirected preferential-attachment graph over nodes
// 1..nodes: every undirected edge {a, b} appears as a->b and b->a, the
// shape of a co-authorship graph such as DBLP.
type graph struct {
	nodes int
	edges []graphalgo.Edge
}

// generate builds the graph for one seed. Node i attaches up to attach
// distinct undirected edges to earlier nodes, drawn from the list of
// every endpoint seen so far, which gives the heavy-tailed degree
// distribution of social and citation graphs. The undirected edge
// count is about attach*nodes, so attach fixes the paper's
// node:edge ratio (3 for DBLP, 19 for Pokec).
func generate(nodes, attach int, mode weightMode, seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	endpoints := make([]int64, 0, 2*nodes*attach)
	endpoints = append(endpoints, 1)
	g := &graph{nodes: nodes, edges: make([]graphalgo.Edge, 0, 2*nodes*attach)}
	for i := 2; i <= nodes; i++ {
		src := int64(i)
		// picked holds src itself too: endpoints gains src as soon as
		// its first edge is drawn, and a self-loop is no co-authorship.
		picked := map[int64]bool{src: true}
		for tries := 0; len(picked) <= min(attach, i-1) && tries < 4*attach; tries++ {
			dst := endpoints[rng.Intn(len(endpoints))]
			if picked[dst] {
				// Fall back to a uniform earlier node so dense prefixes
				// do not spin on the same hub.
				dst = int64(rng.Intn(i-1) + 1)
			}
			if picked[dst] {
				continue
			}
			picked[dst] = true
			endpoints = append(endpoints, src, dst)
			w := 1.0
			if mode == pathWeights {
				w = 1 + 9*rng.Float64()
			}
			g.edges = append(g.edges,
				graphalgo.Edge{Src: src, Dst: dst, Weight: w},
				graphalgo.Edge{Src: dst, Dst: src, Weight: w})
		}
	}
	if mode == rankWeights {
		deg := make([]int, nodes+1)
		for _, e := range g.edges {
			deg[e.Src]++
		}
		for i := range g.edges {
			g.edges[i].Weight = 1 / float64(deg[g.edges[i].Src])
		}
	}
	return g
}

// availability marks exactly round(frac*nodes) nodes available (1),
// chosen from the seed's own stream so the graph and the status column
// vary independently. A fixed count keeps the work per query from
// wandering with the seed. The result is indexed by node id.
func availability(nodes int, frac float64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	status := make([]int64, nodes+1)
	for _, i := range rng.Perm(nodes)[:int(math.Round(frac*float64(nodes)))] {
		status[i+1] = 1
	}
	return status
}

// reach counts the nodes a shortest-path query started at src reaches
// within hops iterations: the vertexStatus join keeps an edge only when
// its destination is available, so a hop may only enter available
// nodes. src itself counts. seen is scratch space of len(out) whose
// entries equal to mark are taken as visited.
func reach(out [][]int64, status []int64, src int64, hops int, seen []int, mark int) int {
	seen[src] = mark
	count := 1
	frontier := []int64{src}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []int64
		for _, n := range frontier {
			for _, d := range out[n] {
				if seen[d] != mark && status[d] != 0 {
					seen[d] = mark
					count++
					next = append(next, d)
				}
			}
		}
		frontier = next
	}
	return count
}

// pickSources returns the k nodes whose shortest-path queries reach
// the most nodes within hops iterations (the smaller id first on ties),
// with their reach. Choosing by reach rather than by id keeps the
// frontier non-empty whatever the seed.
func pickSources(g *graph, status []int64, hops, k int) (sources []int64, reaches []int) {
	out := make([][]int64, g.nodes+1)
	for _, e := range g.edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	seen := make([]int, g.nodes+1)
	order := make([]int64, g.nodes)
	reachOf := make([]int, g.nodes+1)
	for n := 1; n <= g.nodes; n++ {
		order[n-1] = int64(n)
		reachOf[n] = reach(out, status, int64(n), hops, seen, n)
	}
	sort.SliceStable(order, func(i, j int) bool { return reachOf[order[i]] > reachOf[order[j]] })
	for _, n := range order[:min(k, len(order))] {
		sources = append(sources, n)
		reaches = append(reaches, reachOf[n])
	}
	return sources, reaches
}

// edgeRows renders the edges(src, dst, weight) table.
func edgeRows(g *graph) []sqltypes.Row {
	rows := make([]sqltypes.Row, len(g.edges))
	for i, e := range g.edges {
		rows[i] = sqltypes.Row{sqltypes.NewInt(e.Src), sqltypes.NewInt(e.Dst), sqltypes.NewFloat(e.Weight)}
	}
	return rows
}

// statusRows renders the vertexStatus(node, status) table.
func statusRows(status []int64) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, len(status)-1)
	for n := 1; n < len(status); n++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(n)), sqltypes.NewInt(status[n])})
	}
	return rows
}
