package ingest

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"snap/internal/bfs"
	"snap/internal/frontier"
	"snap/internal/sssp"
)

// TestStreamReadersDuringCommits is the lock-free-query-path contract
// under the race detector: concurrent readers pin epochs and run
// kernels while the writer drives well over ten commits. Any
// unsynchronized access to a snapshot or the epoch refcount trips
// -race in CI.
func TestStreamReadersDuringCommits(t *testing.T) {
	const (
		n       = 400
		commits = 16
		readers = 4
	)
	s, err := NewEmpty(n, false, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Seed the first epoch so readers have something to traverse.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1200; i++ {
		s.Add(rng.Int31n(n), rng.Int31n(n))
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var pins atomic.Int64
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				e := s.Pin()
				if e == nil {
					return
				}
				g := e.Graph()
				// Traverse the pinned snapshot: every arc read races
				// with commits unless epochs really are immutable.
				res := bfs.Serial(g, rng.Int31n(int32(g.NumVertices())), nil)
				if len(res.Dist) != g.NumVertices() {
					t.Errorf("BFS on pinned epoch returned %d dists", len(res.Dist))
				}
				var arcs int64
				for v := 0; v < g.NumVertices(); v++ {
					arcs += int64(len(g.Neighbors(int32(v))))
				}
				if arcs != int64(g.NumArcs()) {
					t.Errorf("pinned epoch arcs %d != %d", arcs, g.NumArcs())
				}
				e.Close()
				pins.Add(1)
			}
		}(int64(r + 2))
	}
	// The writer: interleaved adds/deletes, committing each batch. Wait
	// for the first reader pin so commits genuinely overlap readers
	// even on a single-CPU scheduler.
	for pins.Load() == 0 {
		runtime.Gosched()
	}
	wrng := rand.New(rand.NewSource(99))
	for c := 0; c < commits; c++ {
		e := s.Pin()
		ends := e.Graph().EdgeEndpoints()
		e.Close()
		for i := 0; i < 20 && len(ends) > 0; i++ {
			d := ends[wrng.Intn(len(ends))]
			if err := s.Delete(d.U, d.V); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			if err := s.Add(wrng.Int31n(n), wrng.Int31n(n)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := s.Seq(); got != commits+1 {
		t.Fatalf("seq = %d, want %d", got, commits+1)
	}
	if pins.Load() == 0 {
		t.Fatal("readers never pinned an epoch")
	}
}

// TestServerShapedPinQueryRelease is the serving tier's epoch
// lifecycle under the race detector, in the exact shape the serve
// handlers use it: observe Seq without pinning (the cache-key probe),
// Pin, run a kernel against the pinned snapshot — with pooled
// workspaces and with some queries cancelled mid-run, the way a
// deadline or a disconnected client tears a query down — then release,
// all while a writer publishes new epochs. The invariants: a pinned
// epoch's seq is never older than the seq observed before the pin, the
// pinned snapshot stays internally consistent no matter how many
// commits land during the query, and cancelled runs leave the pooled
// workspaces clean for the next handler.
func TestServerShapedPinQueryRelease(t *testing.T) {
	const (
		n        = 400
		commits  = 12
		handlers = 6
	)
	s, err := NewEmpty(n, false, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1600; i++ {
		s.AddWeighted(rng.Int31n(n), rng.Int31n(n), 1+rng.Float64()*9)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	for h := 0; h < handlers; h++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				// The cache-key probe reads Seq without holding a pin;
				// the pin that follows may land on a newer epoch (a
				// commit slipped in between) but never an older one.
				observed := s.Seq()
				e := s.Pin()
				if e == nil {
					return
				}
				if e.Seq() < observed {
					t.Errorf("pinned seq %d older than observed %d", e.Seq(), observed)
				}
				g := e.Graph()
				src := rng.Int31n(int32(g.NumVertices()))
				switch rng.Intn(4) {
				case 0: // full BFS, pooled workspace
					ws := bfs.AcquireWorkspace(g.NumVertices())
					ws.Run(g, src, nil, -1)
					if ws.Dist(src) != 0 {
						t.Errorf("dist[src] = %d", ws.Dist(src))
					}
					bfs.ReleaseWorkspace(ws)
				case 1: // BFS torn down mid-run (deadline/disconnect shape)
					polls := 0
					ws := bfs.AcquireWorkspace(g.NumVertices())
					ws.RunOptions(g, src, frontier.Options{
						Workers:  2,
						MaxDepth: -1,
						Alpha:    frontier.DefaultAlpha,
						Cancel:   func() bool { polls++; return polls > 2 },
					})
					bfs.ReleaseWorkspace(ws)
				case 2: // weighted SSSP, pooled workspace
					ws := sssp.AcquireWorkspace()
					ws.Run(g, src, sssp.DeltaSteppingOptions{})
					sssp.ReleaseWorkspace(ws)
				default: // SSSP aborted at a bucket boundary
					polls := 0
					ws := sssp.AcquireWorkspace()
					ws.Run(g, src, sssp.DeltaSteppingOptions{
						Cancel: func() bool { polls++; return polls > 1 },
					})
					sssp.ReleaseWorkspace(ws)
				}
				e.Close()
				queries.Add(1)
			}
		}(int64(h + 11))
	}

	for queries.Load() == 0 {
		runtime.Gosched()
	}
	wrng := rand.New(rand.NewSource(17))
	for c := 0; c < commits; c++ {
		for i := 0; i < 60; i++ {
			if err := s.AddWeighted(wrng.Int31n(n), wrng.Int31n(n), 1+wrng.Float64()*9); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := s.Seq(); got != commits+1 {
		t.Fatalf("seq = %d, want %d", got, commits+1)
	}
	if queries.Load() == 0 {
		t.Fatal("handlers never completed a query")
	}
}
