package community

import (
	"slices"
	"sync"

	"snap/internal/graph"
	"snap/internal/par"
)

// PMAOptions configures the modularity-maximizing agglomerative
// clustering algorithm (Algorithm 2 of the paper).
type PMAOptions struct {
	// Workers bounds parallelism; <= 0 means par.Workers().
	Workers int
	// StopWhenNegative stops agglomeration once every possible merge
	// has negative ΔQ. This is lossless: ΔQ update rules only ever
	// subtract positive quantities, so once all entries are negative
	// modularity can only decrease; the best clustering has already
	// been recorded. Set false to build the complete dendrogram down
	// to a single community, matching Algorithm 2 literally.
	StopWhenNegative bool
	// ParallelThreshold is the union-row size above which the per-
	// neighbor ΔQ updates of a merge run in parallel (the paper's
	// parallelized step 10). 0 => 512.
	ParallelThreshold int
}

// deltaRow is one row of the sparse ΔQ matrix, stored exactly as the
// paper describes: a sorted dynamic array (parallel id/value slices,
// O(log n) lookup, ordered linear merges) plus a multilevel bucket
// structure tracking the row maximum.
type deltaRow struct {
	ids  []int32 // sorted ascending
	vals []float64
	pq   *BucketPQ
}

func newDeltaRow() *deltaRow {
	return &deltaRow{pq: NewBucketPQ()}
}

func (r *deltaRow) set(id int32, v float64) {
	if i, found := slices.BinarySearch(r.ids, id); found {
		r.vals[i] = v
	} else {
		r.ids = slices.Insert(r.ids, i, id)
		r.vals = slices.Insert(r.vals, i, v)
	}
	r.pq.Set(id, v)
}

func (r *deltaRow) delete(id int32) {
	i, found := slices.BinarySearch(r.ids, id)
	if !found {
		return
	}
	r.ids = slices.Delete(r.ids, i, i+1)
	r.vals = slices.Delete(r.vals, i, i+1)
	r.pq.Delete(id)
}

func (r *deltaRow) max() (int32, float64, bool) { return r.pq.Max() }

func (r *deltaRow) len() int { return len(r.ids) }

// PMA is the parallel greedy agglomerative clustering algorithm (pMA):
// Clauset–Newman–Moore-style modularity agglomeration over SNAP's row
// representation. Every community pair merge selects the global
// maximum ΔQ via a lazy heap over per-row bucketed maxima; the ΔQ
// updates radiating to neighboring communities are applied in parallel.
func PMA(g *graph.Graph, opt PMAOptions) (Clustering, *Dendrogram) {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if opt.ParallelThreshold <= 0 {
		opt.ParallelThreshold = 512
	}
	n := g.NumVertices()
	mEdges := g.NumEdges()
	if n == 0 || mEdges == 0 {
		return Singletons(g), NewDendrogram(make([]int32, n), n, 0)
	}
	m := float64(mEdges)

	// a[i] = deg(i) / 2m for singleton communities.
	a := make([]float64, n)
	for v := 0; v < n; v++ {
		a[v] = float64(g.Degree(int32(v))) / (2 * m)
	}
	// Q of the singleton partition: sum(0 - a_i^2).
	q := 0.0
	for _, av := range a {
		q -= av * av
	}

	rows := make([]*deltaRow, n)
	active := make([]bool, n)
	heap := &pairHeap{}
	for vi := 0; vi < n; vi++ {
		v := int32(vi)
		row := newDeltaRow()
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			row.set(u, 1/m-2*a[v]*a[u])
		}
		rows[vi] = row
		active[vi] = true
		if id, dq, ok := row.max(); ok {
			heap.Push(pairItem{dq: dq, row: v, with: id})
		}
	}

	// Community membership for dendrogram snapshots. Row slots and
	// labels are decoupled: rows[] merge small-row-into-large-row for
	// ΔQ efficiency, while vertex labels merge small-member-set-into-
	// large-member-set so total relabeling stays O(n log n).
	assign := make([]int32, n)
	labelOf := make([]int32, n)     // row slot -> current label
	membersOf := make([][]int32, n) // label -> member vertices
	for v := range assign {
		assign[v] = int32(v)
		labelOf[v] = int32(v)
		membersOf[v] = []int32{int32(v)}
	}
	dend := NewDendrogram(assign, n, q)

	nC := n
	var mu sync.Mutex
	step := 0
	for nC > 1 && heap.Len() > 0 {
		it := heap.Pop()
		if !active[it.row] {
			continue
		}
		id, dq, ok := rows[it.row].max()
		if !ok {
			continue // isolated community: no merge can ever involve it
		}
		if dq != it.dq || id != it.with {
			// Stale entry: reinsert the fresh maximum.
			heap.Push(pairItem{dq: dq, row: it.row, with: id})
			continue
		}
		if opt.StopWhenNegative && dq < 0 {
			break
		}
		i, j := it.with, it.row
		// Merge the smaller row into the larger one.
		if rows[i].len() > rows[j].len() {
			i, j = j, i
		}
		small, big := rows[i], rows[j]
		small.delete(j)
		big.delete(i)

		// Merge the two sorted rows with two pointers (the paper's
		// parallel row merge), producing the union of neighbor ids
		// and the new ΔQ value of each in one pass.
		union, nvs := mergeRows(small, big, a[i], a[j], a)

		// update applies the ΔQ rules to neighbor row l and returns a
		// fresh heap entry ONLY when l's row maximum changed (row: -1
		// otherwise) — pushing unconditionally floods the lazy heap
		// with stale entries and dominates the runtime.
		update := func(k int) pairItem {
			l := union[k]
			rl := rows[l]
			oldID, oldDQ, hadMax := rl.max()
			rl.delete(i)
			rl.set(j, nvs[k])
			mid, mdq, _ := rl.max()
			if hadMax && mid == oldID && mdq == oldDQ {
				return pairItem{row: -1}
			}
			return pairItem{dq: mdq, row: l, with: mid}
		}

		if len(union) >= opt.ParallelThreshold && workers > 1 {
			pending := make([]pairItem, len(union))
			par.ForChunkedN(len(union), workers, func(_, lo, hi int) {
				for k := lo; k < hi; k++ {
					pending[k] = update(k)
				}
			})
			mu.Lock()
			for _, p := range pending {
				if p.row >= 0 {
					heap.Push(p)
				}
			}
			mu.Unlock()
		} else {
			for k := range union {
				if p := update(k); p.row >= 0 {
					heap.Push(p)
				}
			}
		}

		// The merged row under id j is exactly (union, nvs).
		nr := newDeltaRow()
		nr.ids = union
		nr.vals = nvs
		for k, l := range union {
			nr.pq.Set(l, nvs[k])
		}
		rows[j] = nr
		rows[i] = nil
		active[i] = false
		a[j] += a[i]
		q += dq
		nC--

		// Fold the smaller member set's label into the larger's.
		li, lj := labelOf[i], labelOf[j]
		if len(membersOf[li]) > len(membersOf[lj]) {
			li, lj = lj, li
		}
		for _, v := range membersOf[li] {
			assign[v] = lj
		}
		membersOf[lj] = append(membersOf[lj], membersOf[li]...)
		membersOf[li] = nil
		labelOf[j] = lj

		if mid, mdq, ok := nr.max(); ok {
			heap.Push(pairItem{dq: mdq, row: j, with: mid})
		}
		dend.Record(DendrogramEvent{
			Step:     step,
			Join:     true,
			A:        i,
			B:        j,
			EdgeID:   -1,
			Clusters: nC,
			Q:        q,
		}, assign, nC)
		step++
	}
	return dend.Best(), dend
}

// mergeRows linearly merges the sorted (id, ΔQ) rows of communities i
// and j, applying the CNM update rules: neighbors of both sum their
// entries; single-side neighbors are corrected by -2*a_other*a_l.
func mergeRows(small, big *deltaRow, ai, aj float64, a []float64) ([]int32, []float64) {
	x, xv := small.ids, small.vals
	y, yv := big.ids, big.vals
	ids := make([]int32, 0, len(x)+len(y))
	vals := make([]float64, 0, len(x)+len(y))
	p, q := 0, 0
	for p < len(x) && q < len(y) {
		switch {
		case x[p] < y[q]:
			ids = append(ids, x[p])
			vals = append(vals, xv[p]-2*aj*a[x[p]])
			p++
		case x[p] > y[q]:
			ids = append(ids, y[q])
			vals = append(vals, yv[q]-2*ai*a[y[q]])
			q++
		default:
			ids = append(ids, x[p])
			vals = append(vals, xv[p]+yv[q])
			p++
			q++
		}
	}
	for ; p < len(x); p++ {
		ids = append(ids, x[p])
		vals = append(vals, xv[p]-2*aj*a[x[p]])
	}
	for ; q < len(y); q++ {
		ids = append(ids, y[q])
		vals = append(vals, yv[q]-2*ai*a[y[q]])
	}
	return ids, vals
}
