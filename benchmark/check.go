package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"

	"snap"
)

// Oracles. Every scripted answer is checked against one of these
// plain, serial reference implementations, which share nothing with
// the product kernels but the input adjacency.

// adjacency is the CSR view the oracles walk: a product graph's own
// arrays, or one built from the ingest map model.
type adjacency struct {
	off []int64
	adj []int32
	w   []float64 // nil when unweighted
}

func adjOf(g *snap.Graph) adjacency { return adjacency{g.Offsets, g.Adj, g.W} }

func (a adjacency) n() int { return len(a.off) - 1 }

// oracleBFS is the textbook queue BFS. dist is overwritten; unreached
// vertices read -1.
func oracleBFS(a adjacency, src int32, dist []int32) (reached int, ecc int32) {
	for i := range dist {
		dist[i] = -1
	}
	queue := []int32{src}
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ecc = dist[u]
		for _, v := range a.adj[a.off[u]:a.off[u+1]] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return len(queue), ecc
}

type heapItem struct {
	d float64
	v int32
}
type distHeap []heapItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// oracleDijkstra is the lazy-deletion binary-heap Dijkstra; unreached
// vertices read +Inf. Weights are small integers, so every path
// length is exact in float64 and comparable with ==.
func oracleDijkstra(a adjacency, src int32) (dist []float64, reached int) {
	dist = make([]float64, a.n())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		reached++
		for i := a.off[it.v]; i < a.off[it.v+1]; i++ {
			if nd := it.d + a.w[i]; nd < dist[a.adj[i]] {
				dist[a.adj[i]] = nd
				heap.Push(h, heapItem{nd, a.adj[i]})
			}
		}
	}
	return dist, reached
}

// oracleComponents labels components by repeated queue BFS and returns
// the labels, the count, and the members of the largest component.
func oracleComponents(a adjacency) (comp []int32, count int, largest []int32) {
	comp = make([]int32, a.n())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		queue = append(queue[:0], int32(s))
		comp[s] = int32(count)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range a.adj[a.off[u]:a.off[u+1]] {
				if comp[v] < 0 {
					comp[v] = int32(count)
					queue = append(queue, v)
				}
			}
		}
		if len(queue) > len(largest) {
			largest = append(largest[:0], queue...)
		}
		count++
	}
	return comp, count, largest
}

// oraclePageRank is the plain Jacobi power iteration: damping 0.85,
// dangling mass spread uniformly, stopped at an L1 step below 1e-9.
func oraclePageRank(a adjacency) []float64 {
	n := a.n()
	rank, next, share := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < 500; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if d := a.off[v+1] - a.off[v]; d == 0 {
				dangling += rank[v]
				share[v] = 0
			} else {
				share[v] = rank[v] / float64(d)
			}
		}
		base := (0.15 + 0.85*dangling) / float64(n)
		delta := 0.0
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range a.adj[a.off[v]:a.off[v+1]] {
				s += share[u]
			}
			next[v] = base + 0.85*s
			delta += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		if delta < 1e-9 {
			break
		}
	}
	return rank
}

// Tolerance of every PageRank comparison (per-vertex, absolute).
const pageRankTol = 1e-6

func checkPageRank(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d scores, want %d", len(got), len(want))
	}
	sum := 0.0
	for v, x := range got {
		sum += x
		if math.IsNaN(x) || math.Abs(x-want[v]) > pageRankTol {
			return fmt.Errorf("pagerank: score[%d] = %g, power iteration %g", v, x, want[v])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("pagerank: scores sum to %.12f", sum)
	}
	return nil
}

// samePartition reports whether two labelings induce the same
// partition (label names may differ).
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int32]int32{}, map[int32]int32{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

// modularityOf recomputes Newman modularity of an unweighted
// undirected graph from first principles.
func modularityOf(a adjacency, assign []int32, count int) float64 {
	in, tot := make([]float64, count), make([]float64, count)
	for u := 0; u < a.n(); u++ {
		cu := assign[u]
		tot[cu] += float64(a.off[u+1] - a.off[u])
		for _, v := range a.adj[a.off[u]:a.off[u+1]] {
			if assign[v] == cu {
				in[cu]++
			}
		}
	}
	m2 := float64(len(a.adj))
	q := 0.0
	for c, t := range tot {
		q += in[c]/m2 - (t/m2)*(t/m2)
	}
	return q
}

// cutAndBalance recomputes a k-way partition's edge cut and its
// heaviest part relative to the ideal n/k.
func cutAndBalance(a adjacency, part []int32, k int) (cut int64, balance float64) {
	sizes := make([]int, k)
	for u := 0; u < a.n(); u++ {
		sizes[part[u]]++
		for _, v := range a.adj[a.off[u]:a.off[u+1]] {
			if int32(u) < v && part[v] != part[u] {
				cut++
			}
		}
	}
	big := 0
	for _, s := range sizes {
		big = max(big, s)
	}
	return cut, float64(big) * float64(k) / float64(a.n())
}

// Serve responses.

// distWant is the oracle's answer to one scripted distance query.
type distWant struct {
	sssp    bool
	src     int32
	dst     []int32
	dist    []float64 // -1 where unreached, as the server encodes it
	reached int
	ecc     int32 // bfs only
}

func wantFromBFS(src int32, dst []int32, dist []int32, reached int, ecc int32) distWant {
	w := distWant{src: src, dst: dst, reached: reached, ecc: ecc}
	for _, d := range dst {
		w.dist = append(w.dist, float64(dist[d]))
	}
	return w
}

func wantFromDijkstra(src int32, dst []int32, dist []float64, reached int) distWant {
	w := distWant{sssp: true, src: src, dst: dst, reached: reached}
	for _, d := range dst {
		if math.IsInf(dist[d], 1) {
			w.dist = append(w.dist, -1)
		} else {
			w.dist = append(w.dist, dist[d])
		}
	}
	return w
}

// checkDistBody validates one bfs/sssp response body against the
// oracle: status 200, same source, reached count, eccentricity and
// every dst distance exactly.
func checkDistBody(status int, body []byte, want distWant) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var got struct {
		Op      string    `json:"op"`
		Src     int32     `json:"src"`
		Reached int       `json:"reached"`
		Ecc     *int32    `json:"ecc"`
		Dst     []int32   `json:"dst"`
		Dist    []float64 `json:"dist"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("body %q: %v", body, err)
	}
	op := "bfs"
	if want.sssp {
		op = "sssp"
	}
	switch {
	case got.Op != op || got.Src != want.src:
		return fmt.Errorf("answered %s src=%d, asked %s src=%d", got.Op, got.Src, op, want.src)
	case got.Reached != want.reached:
		return fmt.Errorf("%s src=%d: reached %d, oracle %d", op, want.src, got.Reached, want.reached)
	case !want.sssp && (got.Ecc == nil || *got.Ecc != want.ecc):
		return fmt.Errorf("bfs src=%d: ecc %v, oracle %d", want.src, got.Ecc, want.ecc)
	case len(got.Dist) != len(want.dist) || len(got.Dst) != len(want.dst):
		return fmt.Errorf("%s src=%d: %d distances, want %d", op, want.src, len(got.Dist), len(want.dist))
	}
	for i := range want.dist {
		if got.Dst[i] != want.dst[i] || got.Dist[i] != want.dist[i] {
			return fmt.Errorf("%s src=%d dst=%d: distance %g, oracle %g", op, want.src, want.dst[i], got.Dist[i], want.dist[i])
		}
	}
	return nil
}

// failures counts failed operations and keeps the first few reasons
// for the report.
type failures struct {
	n       int
	reasons []string
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.n++
	if len(f.reasons) < 5 {
		f.reasons = append(f.reasons, err.Error())
	}
}

// addN records n failed operations that share one reason.
func (f *failures) addN(n int, err error) {
	if n > 0 {
		f.add(err)
		f.n += n - 1
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	f.reasons = append(f.reasons, o.reasons[:min(len(o.reasons), 5-len(f.reasons))]...)
}
