package serve

import (
	"sync"

	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/graph"
	"snap/internal/sketch"
)

// kindPageRank is the one artifact kind chained across epochs.
const kindPageRank = "centrality/pagerank"

// artifactBuilder runs one artifact kernel on a pinned epoch's graph.
type artifactBuilder func(s *Server, h *handle, g *graph.Graph) (any, error)

// artifactBuilders is the table of per-epoch artifacts, keyed by kind:
// op, then "/" and the op's kind= or algo= selector where it has one.
// Every centrality kind builds a []float64 score vector.
var artifactBuilders = map[string]artifactBuilder{
	"oracle": func(s *Server, _ *handle, g *graph.Graph) (any, error) {
		return sketch.BuildOracle(g, sketch.OracleOptions{Workers: s.workers()})
	},
	"centrality/degree": func(_ *Server, _ *handle, g *graph.Graph) (any, error) {
		return centrality.DegreeCentrality(g), nil
	},
	// PageRank is epoch-chained: the build starts from the newest vector
	// an earlier epoch finished (h.art.warmStart) and polishes it on g to
	// the cold build's L1 tolerance, so an answer equals cold PageRank on
	// its own epoch to within that tolerance whatever was queried before.
	// Directed graphs have no warm kernel and rebuild cold.
	kindPageRank: func(s *Server, h *handle, g *graph.Graph) (any, error) {
		warm := h.art.warmStart()
		if g.Directed() || len(warm) != g.NumVertices() {
			warm = nil
		}
		if warm != nil {
			s.artifactWarmBuilds.Add(1)
		}
		return centrality.PageRankFrom(g, warm, centrality.PageRankOptions{Workers: s.workers()}), nil
	},
	// Sampled (Eppstein–Wang) closeness: the serving-grade estimator;
	// exact closeness is O(n·m) per epoch.
	"centrality/closeness": func(s *Server, _ *handle, g *graph.Graph) (any, error) {
		return sketch.Closeness(g, sketch.ClosenessOptions{Workers: s.workers()}).Scores, nil
	},
	"community/louvain": func(s *Server, _ *handle, g *graph.Graph) (any, error) {
		return community.Louvain(g, community.LouvainOptions{Workers: s.workers()}), nil
	},
	"components": func(s *Server, _ *handle, g *graph.Graph) (any, error) {
		return components.ConnectedParallel(g, nil, s.workers()), nil
	},
}

// pinArtifact pins h's newest epoch and returns its artifact of one
// kind with the epoch's seq, running the build under an admission slot
// at most once per epoch (artifactCache.get singleflights it). A kind
// missing from the table is a bad request before any pin or slot;
// check, when non-nil, vets the pinned graph before the artifact is
// looked up. Artifacts share no memory with the graph, so the pin ends
// when pinArtifact returns.
func (s *Server) pinArtifact(h *handle, kind string, check func(*graph.Graph) error) (any, uint64, error) {
	build := artifactBuilders[kind]
	if build == nil {
		return nil, 0, badRequest("unknown artifact %q", kind)
	}
	g, seq, release, err := h.pin()
	if err != nil {
		return nil, 0, err
	}
	defer release()
	if check != nil {
		if err := check(g); err != nil {
			return nil, seq, err
		}
	}
	val, err := h.art.get(seq, kind, func() (any, error) {
		if !s.lim.tryAcquire() {
			return nil, errBusy
		}
		defer s.lim.release()
		s.artifactBuilds.Add(1)
		return build(s, h, g)
	})
	return val, seq, err
}

// artifactCache holds expensive per-epoch derived structures — exact
// centrality vectors, community assignments, component labelings,
// landmark distance oracles — computed at most once per (epoch, kind)
// and shared by every request against that epoch. Builds are
// singleflighted: the first request for a kind computes while later
// requests wait on its done channel, so a burst of identical cold
// queries costs one kernel run, not N.
//
// Like the result cache, invalidation is the epoch swap itself: the
// cache remembers which seq its entries belong to and drops the whole
// map the first time a newer seq is requested. Only the latest epoch's
// artifacts are retained — an intentional single-version policy, since
// the server always answers from the newest epoch — and the cache only
// ever moves forward: a request still pinned to a superseded epoch
// builds for itself and leaves the cache alone.
//
// One thing survives the roll: the newest finished PageRank vector
// (warm), which the next epoch's build starts from instead of the
// uniform vector. It is the published artifact itself, not a copy —
// artifacts are immutable — and only a finished build ever lands in
// the slot, so a failed, cancelled or overtaken build leaves the
// previous vector there.
type artifactCache struct {
	mu      sync.Mutex
	seq     uint64
	m       map[string]*artifact
	warm    []float64
	warmSeq uint64
}

type artifact struct {
	done chan struct{}
	val  any
	err  error
}

// get returns the artifact for (seq, kind), building it with build on
// first request. Failed builds are not retained: the next request
// retries. build runs without the cache lock held; the caller must
// keep its epoch pinned for the duration of the call so build's graph
// stays valid.
func (a *artifactCache) get(seq uint64, kind string, build func() (any, error)) (any, error) {
	a.mu.Lock()
	if seq < a.seq {
		a.mu.Unlock()
		return build()
	}
	if a.m == nil || seq > a.seq {
		a.m = make(map[string]*artifact, 4)
		a.seq = seq
	}
	if art := a.m[kind]; art != nil {
		a.mu.Unlock()
		<-art.done
		return art.val, art.err
	}
	art := &artifact{done: make(chan struct{})}
	a.m[kind] = art
	a.mu.Unlock()

	art.val, art.err = build()
	close(art.done)
	a.mu.Lock()
	switch {
	case art.err != nil:
		if a.m[kind] == art {
			delete(a.m, kind)
		}
	case kind == kindPageRank && seq >= a.warmSeq:
		// >= because the cache may have rolled past seq while this
		// build ran; a newer epoch's finished vector is never replaced
		// by an older one.
		a.warm, a.warmSeq = art.val.([]float64), seq
	}
	a.mu.Unlock()
	return art.val, art.err
}

// warmStart returns the newest finished PageRank vector, or nil before
// the first build. Callers must not write to it.
func (a *artifactCache) warmStart() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.warm
}
