package bfs

import "snap/internal/graph"

// STConnectivity answers s-t connectivity queries with a bidirectional
// BFS that expands the smaller frontier first — the st-connectivity
// kernel the paper's BFS work (Bader & Madduri, ICPP 2006) pairs with
// breadth-first search. Returns whether t is reachable from s and, if
// so, the hop distance between them (-1 otherwise). It runs one
// STSearch; callers with many queries hold their own.
func STConnectivity(g *graph.Graph, s, t int32) (connected bool, dist int32) {
	connected, dist, _ = new(STSearch).Run(g, s, t, nil)
	return connected, dist
}

// STSearch is the bidirectional s-t search: one BFS wave from each
// endpoint, level-marked in one shared array, the smaller frontier
// expanding first (ties to the s side). It is the one bidirectional
// search, behind STConnectivity and pBD's split test after every edge
// removal. Its scratch resets in O(visited), so a caller that holds
// one across queries allocates only when a wave outgrows its earlier
// high-water mark. The zero value is ready to use.
type STSearch struct {
	// mark is 0 for unvisited, depth+1 on the s side and -(depth+1)
	// on the t side; it is all zero between runs.
	mark  []int32
	order [2][]int32 // each wave's vertices in discovery order
}

// Run searches from s and t over the arcs whose edge id alive admits
// (nil admits every arc). It returns whether t is reachable from s
// and, if so, the hop distance; otherwise dist is -1 and side is the
// vertex set of the wave that ran out first, in discovery order — the
// whole component of its endpoint. On a directed graph only the s wave
// runs (the t wave would follow out-arcs), so side is what s reaches.
// side aliases x and is valid until the next Run.
func (x *STSearch) Run(g *graph.Graph, s, t int32, alive []bool) (connected bool, dist int32, side []int32) {
	if s == t {
		return true, 0, nil
	}
	if n := g.NumVertices(); len(x.mark) < n {
		x.mark = make([]int32, n)
	}
	defer x.reset()
	x.mark[s], x.mark[t] = 1, -1
	x.order[0] = append(x.order[0][:0], s)
	x.order[1] = append(x.order[1][:0], t)
	var head [2]int // each wave's frontier is order[w][head[w]:]
	for {
		w := 0
		if !g.Directed() && len(x.order[1])-head[1] < len(x.order[0])-head[0] {
			w = 1
		}
		sign := int32(1 - 2*w)
		front := x.order[w][head[w]:]
		head[w] = len(x.order[w])
		for _, v := range front {
			for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
				if alive != nil && !alive[g.EID[a]] {
					continue
				}
				u := g.Adj[a]
				switch mu := x.mark[u]; {
				case mu == 0:
					x.mark[u] = x.mark[v] + sign
					x.order[w] = append(x.order[w], u)
				case mu*sign < 0:
					// |mark| is depth+1 on both sides; the arc adds one.
					return true, (x.mark[v]-mu)*sign - 1, nil
				}
			}
		}
		if head[w] == len(x.order[w]) {
			return false, -1, x.order[w]
		}
	}
}

func (x *STSearch) reset() {
	for _, o := range x.order {
		for _, v := range o {
			x.mark[v] = 0
		}
	}
}
