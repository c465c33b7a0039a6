// Package surgery implements the paper's baseline: dynamic DNN surgery
// (Hu et al., INFOCOM 2019) — the optimal partition of a *fixed* DNN for a
// *constant* bandwidth, found as a minimum s-t cut on a DAG whose arc
// capacities encode edge compute, cloud compute and transfer costs.
package surgery

import (
	"fmt"
	"math"
)

// graph is a capacitated directed graph for max-flow with adjacency lists of
// paired residual arcs.
type graph struct {
	n    int
	head []int // per-node first arc index, -1 when none
	to   []int
	next []int
	cap  []float64
}

// newGraph allocates an n-node graph with room for arcs addArc calls, so
// building it appends into place.
func newGraph(n, arcs int) *graph {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &graph{
		n:    n,
		head: head,
		to:   make([]int, 0, 2*arcs),
		next: make([]int, 0, 2*arcs),
		cap:  make([]float64, 0, 2*arcs),
	}
}

// addArc inserts a directed arc u→v with the given capacity plus its zero-
// capacity residual twin.
func (g *graph) addArc(u, v int, capacity float64) {
	g.to = append(g.to, v)
	g.cap = append(g.cap, capacity)
	g.next = append(g.next, g.head[u])
	g.head[u] = len(g.to) - 1

	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
	g.next = append(g.next, g.head[v])
	g.head[v] = len(g.to) - 1
}

// maxflow runs Edmonds–Karp from s to t and returns the max-flow value.
// Afterwards minCutSourceSide identifies the s-side of a minimum cut.
func (g *graph) maxflow(s, t int) float64 {
	total := 0.0
	parentArc := make([]int, g.n)
	// Each node enters a BFS at most once, so one n-slot queue serves all.
	queue := make([]int, 0, g.n)
	for {
		for i := range parentArc {
			parentArc[i] = -1
		}
		// BFS on the residual graph.
		queue = append(queue[:0], s)
		parentArc[s] = -2
		for h := 0; h < len(queue) && parentArc[t] == -1; h++ {
			u := queue[h]
			for a := g.head[u]; a != -1; a = g.next[a] {
				v := g.to[a]
				if parentArc[v] == -1 && g.cap[a] > 1e-12 {
					parentArc[v] = a
					queue = append(queue, v)
				}
			}
		}
		if parentArc[t] == -1 {
			return total
		}
		// Bottleneck along the augmenting path.
		bottleneck := math.Inf(1)
		for v := t; v != s; {
			a := parentArc[v]
			if g.cap[a] < bottleneck {
				bottleneck = g.cap[a]
			}
			v = g.to[a^1]
		}
		for v := t; v != s; {
			a := parentArc[v]
			g.cap[a] -= bottleneck
			g.cap[a^1] += bottleneck
			v = g.to[a^1]
		}
		total += bottleneck
		if math.IsInf(total, 1) {
			return total
		}
	}
}

// minCutSourceSide returns, after maxflow, which nodes remain reachable from
// s in the residual graph — the source side of a minimum cut.
func (g *graph) minCutSourceSide(s int) []bool {
	side := make([]bool, g.n)
	queue := []int{s}
	side[s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := g.head[u]; a != -1; a = g.next[a] {
			v := g.to[a]
			if !side[v] && g.cap[a] > 1e-12 {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

func validateNode(n, v int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("surgery: node %d out of range [0,%d)", v, n)
	}
	return nil
}
