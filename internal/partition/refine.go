package partition

import "math/rand"

// Bisection-side refinement helpers used by the recursive-bisection and
// spectral pipelines. The direct k-way engine's initial partition and
// refinement live in kway.go on the reusable Workspace.

// growBisection seeds side 0 from a random vertex and grows it to the
// target fraction of total weight; the rest is side 1.
func growBisection(w *wgraph, frac float64, rng *rand.Rand) []int32 {
	n := w.n()
	side := make([]int32, n)
	for i := range side {
		side[i] = 1
	}
	if n == 0 {
		return side
	}
	total := w.totalVW()
	target := int64(frac * float64(total))
	var grown int64
	queue := make([]int32, 0, 256)
	visited := make([]bool, n)
	for grown < target {
		// Seed (or re-seed for disconnected graphs).
		seed := int32(-1)
		for tries := 0; tries < 64; tries++ {
			c := int32(rng.Intn(n))
			if !visited[c] {
				seed = c
				break
			}
		}
		if seed == -1 {
			for v := int32(0); int(v) < n; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
			if seed == -1 {
				break
			}
		}
		visited[seed] = true
		side[seed] = 0
		grown += w.vw[seed]
		queue = append(queue[:0], seed)
		for head := 0; head < len(queue) && grown < target; head++ {
			v := queue[head]
			for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
				u := w.adj[a]
				if visited[u] {
					continue
				}
				visited[u] = true
				side[u] = 0
				grown += w.vw[u]
				queue = append(queue, u)
				if grown >= target {
					break
				}
			}
		}
	}
	return side
}

// refineBisection is two-part boundary refinement with a weight target
// of frac for side 0.
func refineBisection(w *wgraph, side []int32, frac float64, rng *rand.Rand) {
	n := w.n()
	total := w.totalVW()
	target0 := float64(total) * frac
	max0 := int64(target0 * (1 + imbalance))
	min0 := int64(target0 * (1 - imbalance))
	var w0 int64
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += w.vw[v]
		}
	}
	order := rng.Perm(n)
	for pass := 0; pass < refinePasses; pass++ {
		moves := 0
		for _, vi := range order {
			v := int32(vi)
			var internal, external int64
			sv := side[v]
			for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
				if side[w.adj[a]] == sv {
					internal += w.ew[a]
				} else {
					external += w.ew[a]
				}
			}
			gain := external - internal
			if gain <= 0 {
				continue
			}
			if sv == 0 {
				if w0-w.vw[v] < min0 {
					continue
				}
				w0 -= w.vw[v]
				side[v] = 1
			} else {
				if w0+w.vw[v] > max0 {
					continue
				}
				w0 += w.vw[v]
				side[v] = 0
			}
			moves++
		}
		if moves == 0 {
			break
		}
	}
	// Hard rebalance toward the window if we drifted outside it.
	balanceBisection(w, side, &w0, min0, max0)
}

// balanceBisection moves lowest-loss boundary vertices until side 0's
// weight is inside [min0, max0].
func balanceBisection(w *wgraph, side []int32, w0 *int64, min0, max0 int64) {
	n := w.n()
	guard := 0
	for (*w0 > max0 || *w0 < min0) && guard < n {
		guard++
		from := int32(0)
		if *w0 < min0 {
			from = 1
		}
		bestV := int32(-1)
		var bestGain int64 = -1 << 62
		for v := int32(0); int(v) < n; v++ {
			if side[v] != from {
				continue
			}
			var internal, external int64
			for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
				if side[w.adj[a]] == from {
					internal += w.ew[a]
				} else {
					external += w.ew[a]
				}
			}
			if g := external - internal; g > bestGain {
				bestGain = g
				bestV = v
			}
		}
		if bestV == -1 {
			break
		}
		if from == 0 {
			*w0 -= w.vw[bestV]
			side[bestV] = 1
		} else {
			*w0 += w.vw[bestV]
			side[bestV] = 0
		}
	}
}
