package serve

import "sync"

// kindPageRank is the one artifact kind chained across epochs.
const kindPageRank = "centrality/pagerank"

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
