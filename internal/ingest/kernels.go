package ingest

import (
	"sync"

	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/frontier"
	"snap/internal/graph"
)

// kernelState carries the incrementally-maintained analytics of a
// Stream across epochs. Each kernel has its own lock so a slow query
// on one never blocks the others; commits touch this state only under
// short bookkeeping sections (the connected-components update is the
// longest, and it only pays a BFS when a real deletion might split a
// component). None of it blocks Pin, which stays lock-free.
type kernelState struct {
	// Connected components: a union-find tracker kept in lockstep with
	// the published epoch. Inserts union in near-constant amortized
	// time; a deletion forces an epoch-scoped split check (BFS over
	// the suspect components on the new snapshot) and only a detected
	// split discards the tracker for a lazy full recompute. ccMu is
	// held across the epoch pointer swap so the tracker and the
	// current epoch can never be observed out of sync.
	ccMu  sync.Mutex
	cc    *components.Incremental
	ccSeq uint64

	// PageRank: the scores of epoch prSeq (nil before the first query),
	// the next query's warm start. prMu serializes the computation.
	prMu     sync.Mutex
	prScores []float64
	prSeq    uint64

	// Louvain: the previous epoch's partition, used to warm-start the
	// move engine on the next query.
	cmMu     sync.Mutex
	cmAssign []int32
	cmCount  int
	cmQ      float64
	cmSeq    uint64
	cmHave   bool
}

// publishCommit performs incremental-kernel bookkeeping for one commit
// and publishes the new epoch. Called with the stream mutex held; add
// and realDel are the deduped applied delta (realDel only pairs that
// existed in the superseded snapshot).
func (k *kernelState) publishCommit(s *Stream, old, e *Epoch, add, realDel []graph.Edge) {
	k.ccMu.Lock()
	if k.cc != nil && k.ccSeq == old.seq {
		switch {
		case s.directed && len(realDel) > 0:
			// Out-adjacency BFS cannot verify weak connectivity;
			// deletions on directed streams drop to a lazy recompute.
			k.cc = nil
		case len(realDel) > 0:
			k.cc.AddEdges(add)
			if splitsComponent(e.g, realDel) {
				k.cc = nil
			} else {
				k.ccSeq = e.seq
			}
		default:
			k.cc.AddEdges(add)
			k.ccSeq = e.seq
		}
	} else {
		k.cc = nil // tracker missed a commit; rebuild lazily
	}
	s.cur.Store(e)
	k.ccMu.Unlock()
	old.Close()
}

// splitsComponent reports whether deleting the given (previously
// existing) edges disconnected any of their endpoints on the new
// snapshot. If every deleted edge's endpoints remain connected, every
// old path is repairable and the component structure is unchanged —
// the union-find tracker stays exact. The check BFSes each suspect
// component at most once, labeling progressively: a BFS from an
// unlabeled vertex stamps its entire component, so two vertices are
// connected iff they end up with the same label.
func splitsComponent(g *graph.Graph, del []graph.Edge) bool {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	eng := frontier.AcquireEngine(n)
	defer frontier.ReleaseEngine(eng)
	var next int32
	for _, e := range del {
		if comp[e.U] < 0 {
			eng.Run(g, e.U, nil, -1)
			for _, v := range eng.Order() {
				comp[v] = next
			}
			next++
		}
		if comp[e.U] != comp[e.V] {
			return true
		}
	}
	return false
}

// Components returns the connected components of the current epoch
// (weak components on directed streams), maintained incrementally: an
// insert-only commit history is tracked by union-find without touching
// the snapshot, and only component-splitting deletions pay a
// recompute. The labeling is identical to components.Connected on the
// pinned snapshot (dense ids in smallest-member order).
func (s *Stream) Components() components.Labeling {
	k := &s.kernels
	k.ccMu.Lock()
	defer k.ccMu.Unlock()
	e := s.Pin()
	if e == nil {
		return components.Labeling{}
	}
	defer e.Close()
	if k.cc == nil || k.ccSeq != e.seq {
		lab := components.Connected(e.g, nil)
		k.cc = components.IncrementalFromLabeling(lab)
		k.ccSeq = e.seq
		return lab
	}
	return k.cc.Labeling()
}

// ConnectedQuery answers one connectivity question against the
// maintained tracker without materializing a labeling.
func (s *Stream) ConnectedQuery(u, v int32) (bool, error) {
	if err := s.check(u, v); err != nil {
		return false, err
	}
	k := &s.kernels
	k.ccMu.Lock()
	defer k.ccMu.Unlock()
	e := s.Pin()
	if e == nil {
		return false, nil
	}
	defer e.Close()
	if k.cc == nil || k.ccSeq != e.seq {
		k.cc = components.IncrementalFromLabeling(components.Connected(e.g, nil))
		k.ccSeq = e.seq
	}
	return k.cc.Connected(u, v), nil
}

// PageRank returns the PageRank scores of the current epoch,
// maintained across epochs: the first call pays a full power
// iteration, and later calls warm-start from the scores of the epoch
// the previous call saw (centrality.PageRankFrom). Results satisfy the
// same tolerance as centrality.PageRank on the pinned snapshot and are
// deterministic at any worker count. The returned slice is the
// caller's to keep.
func (s *Stream) PageRank(opt centrality.PageRankOptions) []float64 {
	k := &s.kernels
	k.prMu.Lock()
	defer k.prMu.Unlock()
	e := s.Pin()
	if e == nil {
		return nil
	}
	defer e.Close()
	if k.prScores == nil || k.prSeq != e.seq {
		k.prScores = centrality.PageRankFrom(e.g, k.prScores, opt)
		k.prSeq = e.seq
	}
	return append([]float64(nil), k.prScores...)
}

// Communities returns a Louvain clustering of the current epoch,
// warm-started from the partition of the previous call: the move
// engine re-seeds from the previous epoch's communities, so it pays
// only for the vertices the delta dislodged, and the returned Q never
// falls below the carried-over partition's. opt.InitialAssign is
// overwritten by the maintained warm seed.
func (s *Stream) Communities(opt community.LouvainOptions) community.Clustering {
	k := &s.kernels
	k.cmMu.Lock()
	defer k.cmMu.Unlock()
	e := s.Pin()
	if e == nil {
		return community.Clustering{}
	}
	defer e.Close()
	if k.cmHave && k.cmSeq == e.seq {
		return community.Clustering{
			Assign: append([]int32(nil), k.cmAssign...),
			Count:  k.cmCount,
			Q:      k.cmQ,
		}
	}
	if k.cmHave && len(k.cmAssign) == s.n {
		opt.InitialAssign = k.cmAssign
	} else {
		opt.InitialAssign = nil
	}
	c := community.Louvain(e.g, opt)
	k.cmAssign = append(k.cmAssign[:0], c.Assign...)
	k.cmCount, k.cmQ = c.Count, c.Q
	k.cmSeq = e.seq
	k.cmHave = true
	return c
}
