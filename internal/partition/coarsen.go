package partition

import (
	"snap/internal/par"
)

// Coarsening: parallel heavy-edge handshake matching plus counting-sort
// contraction, both deterministic at every worker count.
//
// Matching replaces the seed's serial random-order greedy scan with a
// fixed number of handshake rounds. In each round every unmatched
// vertex proposes to its best unmatched neighbor — heaviest incident
// edge first, ties broken by a seeded per-vertex hash, then by smaller
// id — reading only the match state frozen at round start. Mutual
// proposals (pref[pref[v]] == v) become matches; each endpoint writes
// only its own match slot, so the phase is race-free, and because every
// round is a pure function of the previous round's state the matching
// is bit-identical no matter how the rounds are chunked across workers.
//
// Contraction is sort-free: each coarse vertex dedupes its members'
// arcs through a stamp table, and one transposition of the deduplicated
// arcs — the PR-3 histogram → par.CursorsFromCounts → disjoint-scatter
// pattern — writes the next level's adjacency in ascending target
// order (see contract). Weight sums are integers, so the result is
// exact and worker-count independent.

// wview is the one weighted graph type of the package: the original
// CSR or an induced subgraph of it in recursive bisection (ew == nil
// means unit edge weights, vw == nil means unit vertex weights), or a
// contracted coarse level (both materialized).
type wview struct {
	off []int64
	adj []int32
	ew  []int64
	vw  []int64
	// directed means the adjacency is not known to be symmetric: a
	// vertex's arcs do not name everyone who has an arc to it.
	directed bool
}

func (v wview) n() int { return len(v.off) - 1 }

func (v wview) vweight(x int32) int64 {
	if v.vw == nil {
		return 1
	}
	return v.vw[x]
}

func (v wview) eweight(a int64) int64 {
	if v.ew == nil {
		return 1
	}
	return v.ew[a]
}

func (v wview) totalVW() int64 {
	if v.vw == nil {
		return int64(v.n())
	}
	var s int64
	for _, x := range v.vw {
		s += x
	}
	return s
}

// matchRounds bounds the handshake rounds per level. Four rounds leave
// only a small unmatched tail on every graph family we generate; the
// coarsening stall check catches the pathological remainder.
const matchRounds = 4

// matchLevel computes a heavy-edge matching of v into ws.match[:n]
// (match[x] == x means unmatched). salt seeds the tie-break hashes.
// Pairs whose combined vertex weight would exceed maxCluster are not
// proposed, bounding coarse vertex growth across levels.
func (ws *Workspace) matchLevel(v wview, salt uint64, workers int, maxCluster int64) {
	n := v.n()
	ws.match = scratch(ws.match, n)
	ws.pref = scratch(ws.pref, n)
	match, pref := ws.match, ws.pref
	if workers > 1 {
		par.ForChunkedN(n, workers, func(_, lo, hi int) {
			fill32(match[lo:hi], -1)
		})
	} else {
		fill32(match[:n], -1)
	}
	for round := 0; round < matchRounds; round++ {
		rsalt := salt + uint64(round)*0x9e3779b97f4a7c15
		if workers > 1 {
			par.ForChunkedN(n, workers, func(_, lo, hi int) {
				ws.proposeRange(v, rsalt, lo, hi, maxCluster)
			})
			ws.partial = scratch(ws.partial, workers)
			clear(ws.partial[:workers])
			par.ForChunkedN(n, workers, func(w, lo, hi int) {
				ws.partial[w] = handshakeRange(match, pref, lo, hi)
			})
			var matched int64
			for _, p := range ws.partial[:workers] {
				matched += p
			}
			if matched == 0 {
				break
			}
		} else {
			ws.proposeRange(v, rsalt, 0, n, maxCluster)
			if handshakeRange(match, pref, 0, n) == 0 {
				break
			}
		}
	}
	// Normalize the unmatched tail to the match[x] == x convention.
	if workers > 1 {
		par.ForChunkedN(n, workers, func(_, lo, hi int) {
			normalizeRange(match, lo, hi)
		})
	} else {
		normalizeRange(match, 0, n)
	}
}

// proposeRange computes each unmatched vertex's preferred partner in
// [lo, hi): the unmatched neighbor with the heaviest incident edge,
// ties broken by a seeded EDGE hash (symmetric in the endpoints, so
// both ends rank their shared edge identically — the locally-dominant
// edge trick that makes handshakes plentiful; a vertex hash would be a
// global popularity ranking that funnels all proposals into a few hubs
// and stalls on power-law graphs), then by smaller id. Reads only the
// match state frozen at round start.
func (ws *Workspace) proposeRange(v wview, rsalt uint64, lo, hi int, maxCluster int64) {
	match, pref := ws.match, ws.pref
	for xi := lo; xi < hi; xi++ {
		x := int32(xi)
		if match[x] != -1 {
			pref[x] = -1
			continue
		}
		best := int32(-1)
		var bestW int64
		var bestH uint64
		alo, ahi := v.off[x], v.off[x+1]
		if v.ew == nil {
			for a := alo; a < ahi; a++ {
				u := v.adj[a]
				if u == x || match[u] != -1 {
					continue
				}
				h := splitmix64(rsalt ^ (uint64(u) ^ uint64(x)))
				if best == -1 || h > bestH || (h == bestH && u < best) {
					best, bestH = u, h
				}
			}
		} else {
			for a := alo; a < ahi; a++ {
				u := v.adj[a]
				if u == x || match[u] != -1 {
					continue
				}
				if v.vw != nil && v.vw[x]+v.vw[u] > maxCluster {
					continue
				}
				w := v.ew[a]
				if best != -1 && w < bestW {
					continue
				}
				h := splitmix64(rsalt ^ (uint64(u) ^ uint64(x)))
				if best == -1 || w > bestW || h > bestH || (h == bestH && u < best) {
					best, bestW, bestH = u, w, h
				}
			}
		}
		pref[x] = best
	}
}

// handshakeRange matches mutual proposals in [lo, hi), each endpoint
// writing its own slot, and returns the number matched in the range.
func handshakeRange(match, pref []int32, lo, hi int) int64 {
	var matched int64
	for xi := lo; xi < hi; xi++ {
		x := int32(xi)
		if match[x] != -1 || pref[x] < 0 {
			continue
		}
		if u := pref[x]; pref[u] == x {
			match[x] = u
			matched++
		}
	}
	return matched
}

func normalizeRange(match []int32, lo, hi int) {
	for x := lo; x < hi; x++ {
		if match[x] == -1 {
			match[x] = int32(x)
		}
	}
}

func fill32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

// assignCoarse turns ws.match over level li into dense coarse ids
// (ws.lv[li].coarseOf) and cluster weights (ws.cvw), and returns the
// coarse vertex count. No coarse arc is built: the caller decides from
// the count alone whether the level is worth contracting.
func (ws *Workspace) assignCoarse(li int, maxCluster int64) int {
	v := ws.lv[li].view
	n := v.n()
	match := ws.match

	// Dense coarse ids in fine-vertex order: deterministic, O(n).
	// Matched pairs become clusters first; leftover singletons then try
	// to join a neighboring cluster (heaviest connecting edge, ties to
	// the smaller cluster id) under the cluster weight cap. Without the
	// absorption step coarsening stalls on power-law graphs: degree-1
	// satellites around a hub can pair with the hub only one per level,
	// capping the shrink factor near 1.
	ws.lv[li].coarseOf = scratch(ws.lv[li].coarseOf, n)
	coarseOf := ws.lv[li].coarseOf
	fill32(coarseOf, -1)
	ws.cvw = scratch(ws.cvw, n)
	cvw := ws.cvw
	var cn int32
	for x := int32(0); int(x) < n; x++ {
		if coarseOf[x] != -1 {
			continue
		}
		if m := match[x]; m != x {
			coarseOf[x] = cn
			coarseOf[m] = cn
			cvw[cn] = v.vweight(x) + v.vweight(m)
			cn++
		}
	}
	for x := int32(0); int(x) < n; x++ {
		if coarseOf[x] != -1 {
			continue
		}
		vwx := v.vweight(x)
		best := int32(-1)
		var bestW int64
		for a := v.off[x]; a < v.off[x+1]; a++ {
			c := coarseOf[v.adj[a]]
			if c == -1 || cvw[c]+vwx > maxCluster {
				continue
			}
			if w := v.eweight(a); w > bestW || (w == bestW && (best == -1 || c < best)) {
				best, bestW = c, w
			}
		}
		if best != -1 {
			coarseOf[x] = best
			cvw[best] += vwx
			continue
		}
		coarseOf[x] = cn
		cvw[cn] = vwx
		cn++
	}
	return int(cn)
}

// contract materializes level li+1 from the coarse ids assignCoarse
// left in level li: dedupe, then transpose.
//
// Dedupe: fine vertices are bucketed by coarse id, and each coarse
// vertex folds its members' arcs through a coarse-id-indexed slot
// table, so parallel edges collapse as they are met — targets in
// first-seen order, integer weight sums. Row c of the arena starts at
// rowStart[c] (the running sum of member degrees, an upper bound on
// what the row can hold) and ends up with uniq[c] arcs.
//
// Transpose: arc (s→t, w) is written into row t of the next level as
// (s, w). Sources are visited in ascending order, so every row comes
// out strictly ascending without a comparison; and because a level
// contracted from a symmetric adjacency is symmetric, the transpose IS
// the level. A directed level gets its in-adjacency this way, so it is
// transposed back through the arena (the two passes use the level's
// own buffers and the arena, no third copy).
//
// Rows depend only on coarseOf and the fine adjacency, weight sums are
// integers, and within a row the order is fixed by source id — the
// level is the same at every worker count.
func (ws *Workspace) contract(li, cn, workers int) {
	v := ws.lv[li].view
	n := v.n()
	coarseOf := ws.lv[li].coarseOf
	workers = max(1, min(workers, cn))

	// Bucket fine vertices by coarse id: a counting sort that keeps
	// fine order inside a bucket. Counts go in two slots up so that the
	// scatter can use memberOff[c+1] as c's cursor and leave
	// memberOff[c] as c's start. rowStart is the running sum of member
	// degrees.
	ws.memberOff = scratch(ws.memberOff, cn+2)
	ws.rowStart = scratch(ws.rowStart, cn+1)
	memberOff, rowStart := ws.memberOff, ws.rowStart
	members := ws.pref[:n] // the matching is over: its proposals are dead
	clear(memberOff)
	clear(rowStart)
	for x := 0; x < n; x++ {
		c := coarseOf[x]
		memberOff[c+2]++
		rowStart[c+1] += v.off[x+1] - v.off[x]
	}
	for c := 0; c < cn; c++ {
		memberOff[c+2] += memberOff[c+1]
		rowStart[c+1] += rowStart[c]
	}
	for x := 0; x < n; x++ {
		c := coarseOf[x]
		members[memberOff[c+1]] = int32(x)
		memberOff[c+1]++
	}
	ws.arcTo = scratch(ws.arcTo, int(rowStart[cn]))
	ws.arcW = scratch(ws.arcW, int(rowStart[cn]))

	for len(ws.tabs) < workers {
		ws.tabs = append(ws.tabs, nil)
	}
	for w := 0; w < workers; w++ {
		ws.tabs[w] = scratch(ws.tabs[w], cn)
	}
	ws.uniq = scratch(ws.uniq, cn)
	if workers > 1 {
		ws.sizes = scratch(ws.sizes, cn)
		for c := 0; c < cn; c++ {
			ws.sizes[c] = rowStart[c+1] - rowStart[c]
		}
		par.ForDegreeAware(ws.sizes, workers, func(w, lo, hi int) {
			ws.foldRange(v, coarseOf, members, ws.tabs[w], lo, hi)
		})
	} else {
		ws.foldRange(v, coarseOf, members, ws.tabs[0], 0, cn)
	}

	out := &ws.lv[li+1]
	out.vw = scratch(out.vw, cn)
	copy(out.vw, ws.cvw[:cn])
	out.off = scratch(out.off, cn+1)
	var total int64
	for _, u := range ws.uniq {
		total += u
	}
	out.adj = scratch(out.adj, int(total))
	out.ew = scratch(out.ew, int(total))

	if !v.directed {
		ws.transpose(ws.rowStart, ws.uniq, ws.arcTo, ws.arcW, out.off, out.adj, out.ew, workers)
	} else {
		ws.inOff = scratch(ws.inOff, cn+1)
		ws.transpose(ws.rowStart, ws.uniq, ws.arcTo, ws.arcW, ws.inOff, out.adj, out.ew, workers)
		ws.sizes = scratch(ws.sizes, cn)
		for c := 0; c < cn; c++ {
			ws.sizes[c] = ws.inOff[c+1] - ws.inOff[c]
		}
		ws.transpose(ws.inOff, ws.sizes, out.adj, out.ew, out.off, ws.arcTo, ws.arcW, workers)
		copy(out.adj, ws.arcTo[:total])
		copy(out.ew, ws.arcW[:total])
	}
	out.view = wview{off: out.off, adj: out.adj, ew: out.ew, vw: out.vw, directed: v.directed}
}

// foldRange dedupes the rows of coarse vertices [lo, hi) into the arena
// through tab, the worker's coarse-id-indexed table: tab[t] packs the
// coarse source whose row last saw target t (high half) with t's
// position in that row (low half).
func (ws *Workspace) foldRange(v wview, coarseOf, members []int32, tab []int64, lo, hi int) {
	for i := range tab {
		tab[i] = -1
	}
	arcTo, arcW := ws.arcTo, ws.arcW
	for c := int32(lo); int(c) < hi; c++ {
		base := ws.rowStart[c]
		row := int64(c) << 32
		var cnt int64
		for _, x := range members[ws.memberOff[c]:ws.memberOff[c+1]] {
			for a := v.off[x]; a < v.off[x+1]; a++ {
				cu := coarseOf[v.adj[a]]
				if cu == c {
					continue // contracted (or self) edge
				}
				ew := int64(1)
				if v.ew != nil {
					ew = v.ew[a]
				}
				if slot := tab[cu]; slot&^0xffffffff != row {
					tab[cu] = row | cnt
					arcTo[base+cnt] = cu
					arcW[base+cnt] = ew
					cnt++
				} else {
					arcW[base+slot&0xffffffff] += ew
				}
			}
		}
		ws.uniq[c] = cnt
	}
}

// transpose scatters the rows src[start[s] : start[s]+cnt[s]] into
// their transposed CSR: arc (s→t, w) becomes entry (s, w) of row t in
// (dstOff, dstTo, dstW), dstOff computed here. It is the histogram →
// par.CursorsFromCounts → disjoint-scatter pattern over degree-aware
// source ranges: inside a row, entries land in worker order, and
// workers own ascending source ranges, so rows ascend. Row boundaries
// always come from the histogram of what is about to be written —
// never from the caller's belief that the input is symmetric — so the
// scatter stays inside dstTo/dstW whatever the adjacency holds.
func (ws *Workspace) transpose(start, cnt []int64, srcTo []int32, srcW []int64,
	dstOff []int64, dstTo []int32, dstW []int64, workers int) {
	rows := len(cnt)
	// Cleared here, not by the workers: a source range that came out
	// empty never runs its body.
	for w := 0; w < workers; w++ {
		clear(ws.tabs[w])
	}
	if workers > 1 {
		par.ForDegreeAware(cnt, workers, func(w, lo, hi int) {
			histRows(start, cnt, srcTo, ws.tabs[w], lo, hi)
		})
		par.CursorsFromCounts(ws.tabs[:workers], dstOff)
		par.ForDegreeAware(cnt, workers, func(w, lo, hi int) {
			scatterRows(start, cnt, srcTo, srcW, ws.tabs[w], dstTo, dstW, lo, hi)
		})
		return
	}
	histRows(start, cnt, srcTo, ws.tabs[0], 0, rows)
	cursorsSerial(ws.tabs[0], dstOff, rows)
	scatterRows(start, cnt, srcTo, srcW, ws.tabs[0], dstTo, dstW, 0, rows)
}

func histRows(start, cnt []int64, to []int32, c []int64, lo, hi int) {
	for s := lo; s < hi; s++ {
		for _, t := range to[start[s] : start[s]+cnt[s]] {
			c[t]++
		}
	}
}

func scatterRows(start, cnt []int64, to []int32, w []int64, cur []int64, dstTo []int32, dstW []int64, lo, hi int) {
	for s := lo; s < hi; s++ {
		for p := start[s]; p < start[s]+cnt[s]; p++ {
			q := cur[to[p]]
			cur[to[p]] = q + 1
			dstTo[q] = int32(s)
			dstW[q] = w[p]
		}
	}
}

// cursorsSerial is the single-worker, allocation-free arm of
// par.CursorsFromCounts.
func cursorsSerial(c []int64, off []int64, cn int) int64 {
	var acc int64
	for v := 0; v < cn; v++ {
		off[v] = acc
		t := c[v]
		c[v] = acc
		acc += t
	}
	off[cn] = acc
	return acc
}

// coarsenToSize repeatedly matches and contracts the hierarchy rooted
// at ws.lv[0] (which the caller primes with the input view) until the
// coarsest level has at most target vertices or coarsening stalls.
// Returns the number of levels (≥ 1).
func (ws *Workspace) coarsenToSize(target int, seed int64, workers int) int {
	// Cluster weight cap: the ideal coarsest vertex weight if the
	// target is hit exactly. A cluster at the cap is ~1/coarsenTarget
	// of one part's weight, well inside the refinement window.
	maxCluster := max(ws.lv[0].view.totalVW()/int64(max(target, 1)), 4)
	levels := 1
	for ws.lv[levels-1].view.n() > target {
		cur := ws.lv[levels-1].view
		salt := splitmix64(uint64(seed) + uint64(levels)*0x517cc1b727220a95)
		ws.matchLevel(cur, salt, workers, maxCluster)
		cn := ws.assignCoarse(levels-1, maxCluster)
		if cn >= cur.n()*19/20 {
			break // stalled: mostly unmatched vertices
		}
		for len(ws.lv) <= levels {
			ws.lv = append(ws.lv, lvl{})
		}
		ws.contract(levels-1, cn, workers)
		if ls := ws.levelStats(levels - 1); ls != nil {
			ls.CoarseN, ls.CoarseArcs = int64(cn), int64(len(ws.lv[levels].adj))
		}
		levels++
	}
	return levels
}

// primeLevel0 points the hierarchy root at an input view and the run's
// statistics at st (nil = not recorded).
func (ws *Workspace) primeLevel0(v wview, st *Stats) {
	if len(ws.lv) == 0 {
		ws.lv = append(ws.lv, lvl{})
	}
	ws.lv[0].view = v
	ws.stats = st
	if st != nil {
		*st = Stats{}
	}
}
