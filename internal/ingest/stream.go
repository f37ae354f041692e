// Package ingest is the snapshot-epoch streaming pipeline: edge
// insertions and deletions are buffered in a deduped last-write-wins
// delta, and each Commit merges the delta against the current
// snapshot's CSR (graph.MergeDelta, the PR-3 assembly kernel's
// batch-update entry) into a fresh immutable *graph.Graph, published
// as an Epoch by an atomic pointer swap.
//
// The query path is lock-free: readers Pin the current epoch (a CAS
// reference count, never a mutex), run any kernel in the tree against
// its immutable CSR, and Close the pin; commits swap the pointer
// without waiting for readers, and superseded epochs are reclaimed
// when their last pin closes. Writers and Commit serialize on the
// stream's mutex. Commits are deterministic: the published snapshot is
// bit-identical to a from-scratch Build of the equivalent edge list at
// any worker count.
//
// A stream publishes snapshots, not analytics: every kernel runs on a
// pinned epoch, and a caller that wants an answer to follow the stream
// chains it itself (internal/serve warm-starts each epoch's PageRank
// from the last one it built). This is the paper's "topological
// analysis of dynamic networks" future-work direction.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"snap/internal/graph"
	"snap/internal/par"
)

// Options configures a Stream.
type Options struct {
	// Workers bounds commit-time merge parallelism; <= 0 means
	// par.Workers(). The published snapshot is identical either way.
	Workers int
}

// CommitStats reports what one commit changed.
type CommitStats struct {
	// Seq is the sequence number of the epoch this commit published
	// (or of the current epoch for an empty commit).
	Seq uint64
	// Added counts inserted pairs that were absent from the previous
	// snapshot; Updated counts insertions that replaced an existing
	// pair (a weight write); Deleted counts deletions of pairs that
	// actually existed.
	Added, Updated, Deleted int
	// Vertices and Edges describe the published snapshot.
	Vertices, Edges int
}

type pendingOp struct {
	u, v int32
	w    float64
	del  bool
}

// Stream buffers edge updates against the current snapshot epoch.
// All methods are safe for concurrent use; Pin is lock-free.
type Stream struct {
	opt      Options
	directed bool
	weighted bool
	n        int

	mu      sync.Mutex // writers + commit critical section
	pending map[uint64]pendingOp
	seq     uint64
	closed  bool

	cur atomic.Pointer[Epoch]
}

// New wraps an existing immutable snapshot as epoch 0 of a stream. The
// stream takes ownership of g's lifetime: it is released (Close) when
// the stream moves past it and every reader pin is closed, so callers
// that also use g directly should do so through a pin.
func New(g *graph.Graph, opt Options) *Stream {
	s := &Stream{
		opt:      opt,
		directed: g.Directed(),
		weighted: g.Weighted(),
		n:        g.NumVertices(),
		pending:  make(map[uint64]pendingOp),
	}
	s.cur.Store(newEpoch(g, 0))
	return s
}

// NewEmpty starts a stream from an edgeless snapshot over n vertices.
// The vertex set of a stream is fixed for its lifetime.
func NewEmpty(n int, directed, weighted bool, opt Options) (*Stream, error) {
	g, err := graph.Build(n, nil, graph.BuildOptions{Directed: directed, Weighted: weighted})
	if err != nil {
		return nil, err
	}
	return New(g, opt), nil
}

// Pin returns the current epoch with a reference taken, or nil after
// Close. The fast path is one atomic load and one CAS — no locks, and
// never blocked by a concurrent commit. Callers must Close the epoch
// exactly once when done.
func (s *Stream) Pin() *Epoch {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil
		}
		if e.retain() {
			return e
		}
		// The epoch died between the load and the retain: a commit
		// just superseded it and the last pin closed. Reload.
	}
}

// Seq reports the sequence number of the current epoch.
func (s *Stream) Seq() uint64 {
	if e := s.cur.Load(); e != nil {
		return e.seq
	}
	return 0
}

// Pending reports the number of buffered distinct edge operations.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

func (s *Stream) key(u, v int32) uint64 {
	if !s.directed && u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (s *Stream) check(u, v int32) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("ingest: endpoint out of range: (%d,%d), n=%d", u, v, s.n)
	}
	return nil
}

// Add buffers the insertion of edge (u, v) with weight 1. Inserting a
// pair already in the snapshot is a weight write on weighted streams
// and a no-op otherwise. Self-loops are ignored (snapshots are simple
// graphs).
func (s *Stream) Add(u, v int32) error { return s.AddWeighted(u, v, 1) }

// AddWeighted buffers the insertion of edge (u, v) with weight w. The
// weight is ignored on unweighted streams. A later Add or Delete of
// the same pair overwrites this operation (last write wins).
func (s *Stream) AddWeighted(u, v int32, w float64) error {
	return s.apply(pendingOp{u: u, v: v, w: w})
}

// Delete buffers the deletion of edge (u, v). Deleting an absent pair
// is a no-op at commit time.
func (s *Stream) Delete(u, v int32) error {
	return s.apply(pendingOp{u: u, v: v, del: true})
}

// AddEdges buffers a batch of insertions (Edge.W is used on weighted
// streams). The batch obeys the same last-write-wins rule as a
// sequence of AddWeighted calls.
func (s *Stream) AddEdges(edges []graph.Edge) error {
	for _, e := range edges {
		if err := s.AddWeighted(e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}

func (s *Stream) apply(op pendingOp) error {
	if err := s.check(op.u, op.v); err != nil {
		return err
	}
	if op.u == op.v {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("ingest: stream closed")
	}
	s.pending[s.key(op.u, op.v)] = op
	s.mu.Unlock()
	return nil
}

// Commit merges the buffered delta into a fresh snapshot and publishes
// it as the next epoch. Readers holding pins on older epochs are
// untouched. An empty delta publishes nothing and reports the current
// epoch. The published CSR is bit-identical to Build over the updated
// edge list regardless of Options.Workers.
func (s *Stream) Commit() (CommitStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CommitStats{}, errors.New("ingest: stream closed")
	}
	old := s.cur.Load()
	if len(s.pending) == 0 {
		return CommitStats{
			Seq:      old.seq,
			Vertices: s.n,
			Edges:    old.g.NumEdges(),
		}, nil
	}
	add := make([]graph.Edge, 0, len(s.pending))
	del := make([]graph.Edge, 0)
	for _, op := range s.pending {
		if op.del {
			del = append(del, graph.Edge{U: op.u, V: op.v})
		} else {
			add = append(add, graph.Edge{U: op.u, V: op.v, W: op.w})
		}
	}
	workers := s.opt.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	next, err := graph.MergeDeltaWorkers(old.g, add, del, workers)
	if err != nil {
		return CommitStats{}, err
	}

	stats := CommitStats{Vertices: s.n, Edges: next.NumEdges()}
	for _, e := range del {
		if old.g.HasEdge(e.U, e.V) {
			stats.Deleted++
		}
	}
	for _, e := range add {
		if old.g.HasEdge(e.U, e.V) {
			stats.Updated++
		} else {
			stats.Added++
		}
	}

	s.seq++
	stats.Seq = s.seq
	s.cur.Store(newEpoch(next, s.seq))
	old.Close()

	clear(s.pending)
	return stats, nil
}

// Close flushes nothing, releases the stream's reference to the
// current epoch, and rejects further updates. Pins already held stay
// valid until their own Close.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if e := s.cur.Swap(nil); e != nil {
		e.Close()
	}
	return nil
}
