package ingest

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/graph"
)

// streamModel mirrors a Stream's committed edge set: the reference for
// every epoch-semantics property below.
type streamModel struct {
	n        int
	directed bool
	weighted bool
	edges    map[[2]int32]float64
}

func newStreamModel(n int, directed, weighted bool) *streamModel {
	return &streamModel{n: n, directed: directed, weighted: weighted,
		edges: map[[2]int32]float64{}}
}

func (m *streamModel) key(u, v int32) [2]int32 {
	if !m.directed && u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (m *streamModel) add(u, v int32, w float64) {
	if u != v {
		m.edges[m.key(u, v)] = w
	}
}

func (m *streamModel) del(u, v int32) {
	if u != v {
		delete(m.edges, m.key(u, v))
	}
}

func (m *streamModel) build(t testing.TB) *graph.Graph {
	t.Helper()
	list := make([]graph.Edge, 0, len(m.edges))
	for k, w := range m.edges {
		list = append(list, graph.Edge{U: k[0], V: k[1], W: w})
	}
	g, err := graph.Build(m.n, list, graph.BuildOptions{Directed: m.directed, Weighted: m.weighted})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func requireSameGraph(t *testing.T, tag string, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.Directed() != want.Directed() || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: shape mismatch: %v vs %v", tag, got, want)
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: Offsets[%d] = %d, want %d", tag, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s: Adj[%d] = %d, want %d", tag, i, got.Adj[i], want.Adj[i])
		}
		if got.EID[i] != want.EID[i] {
			t.Fatalf("%s: EID[%d] = %d, want %d", tag, i, got.EID[i], want.EID[i])
		}
		if want.W != nil && got.W[i] != want.W[i] {
			t.Fatalf("%s: W[%d] = %g, want %g", tag, i, got.W[i], want.W[i])
		}
	}
}

// TestStreamEpochMatchesBuild is the tentpole property: after any
// interleaving of Add/Delete/Commit, the pinned snapshot is
// bit-identical (Offsets/Adj/EID/W) to a from-scratch Build of the
// equivalent edge list, at every worker count — so every deterministic
// kernel result on the pinned snapshot is bit-identical too.
func TestStreamEpochMatchesBuild(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for _, workers := range workerCounts {
				tag := fmt.Sprintf("dir=%v/w=%v/workers=%d", directed, weighted, workers)
				rng := rand.New(rand.NewSource(11))
				const n = 64
				model := newStreamModel(n, directed, weighted)
				s, err := NewEmpty(n, directed, weighted, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 200; step++ {
					u, v := rng.Int31n(n), rng.Int31n(n)
					switch rng.Intn(10) {
					case 0, 1: // delete
						if err := s.Delete(u, v); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						model.del(u, v)
					case 2: // commit
						if _, err := s.Commit(); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						e := s.Pin()
						requireSameGraph(t, tag, e.Graph(), model.build(t))
						e.Close()
					default: // add
						w := float64(rng.Intn(9)) + 1
						if err := s.AddWeighted(u, v, w); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if !weighted {
							w = 0
						}
						model.add(u, v, w)
					}
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				e := s.Pin()
				want := model.build(t)
				requireSameGraph(t, tag+"/final", e.Graph(), want)

				// Deterministic kernels agree bitwise between the pinned
				// snapshot and the from-scratch build.
				gotBFS := bfs.Serial(e.Graph(), 0, nil)
				wantBFS := bfs.Serial(want, 0, nil)
				for i := range wantBFS.Dist {
					if gotBFS.Dist[i] != wantBFS.Dist[i] || gotBFS.Parent[i] != wantBFS.Parent[i] {
						t.Fatalf("%s: BFS diverges at %d", tag, i)
					}
				}
				gotCC := components.Connected(e.Graph(), nil)
				wantCC := components.Connected(want, nil)
				if gotCC.Count != wantCC.Count {
					t.Fatalf("%s: CC count %d vs %d", tag, gotCC.Count, wantCC.Count)
				}
				for i := range wantCC.Comp {
					if gotCC.Comp[i] != wantCC.Comp[i] {
						t.Fatalf("%s: CC label diverges at %d", tag, i)
					}
				}
				if !directed && want.NumEdges() > 0 {
					gotPR := centrality.PageRank(e.Graph(), centrality.PageRankOptions{})
					wantPR := centrality.PageRank(want, centrality.PageRankOptions{})
					for i := range wantPR {
						if gotPR[i] != wantPR[i] {
							t.Fatalf("%s: PageRank diverges at %d", tag, i)
						}
					}
					gotLv := community.Louvain(e.Graph(), community.LouvainOptions{Seed: 5})
					wantLv := community.Louvain(want, community.LouvainOptions{Seed: 5})
					if gotLv.Q != wantLv.Q || gotLv.Count != wantLv.Count {
						t.Fatalf("%s: Louvain diverges: %v vs %v", tag, gotLv.Q, wantLv.Q)
					}
					for i := range wantLv.Assign {
						if gotLv.Assign[i] != wantLv.Assign[i] {
							t.Fatalf("%s: Louvain assign diverges at %d", tag, i)
						}
					}
				}
				e.Close()
				s.Close()
			}
		}
	}
}

// TestStreamEpochLifetime pins an epoch, commits past it repeatedly,
// and verifies the pinned snapshot stays valid and bit-stable until
// its pin closes — and that the backing resource is released exactly
// when the last reference drops.
func TestStreamEpochLifetime(t *testing.T) {
	const n = 40
	s, err := NewEmpty(n, false, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := newStreamModel(n, false, false)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 80; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		s.Add(u, v)
		model.add(u, v, 0)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	pinned := s.Pin()
	wantOld := model.build(t)
	oldSeq := pinned.Seq()

	for c := 0; c < 12; c++ {
		for i := 0; i < 10; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if rng.Intn(3) == 0 {
				s.Delete(u, v)
				model.del(u, v)
			} else {
				s.Add(u, v)
				model.add(u, v, 0)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		// The old pin is untouched by newer commits.
		requireSameGraph(t, fmt.Sprintf("pinned-after-%d-commits", c+1), pinned.Graph(), wantOld)
	}
	if s.Seq() == oldSeq {
		t.Fatal("commits did not advance the epoch")
	}
	cur := s.Pin()
	requireSameGraph(t, "current", cur.Graph(), model.build(t))
	cur.Close()
	pinned.Close()
	s.Close()
}

// TestStreamEpochRelease watches the PR-6 closer hook: a superseded
// epoch's graph is closed only when the stream has moved past it AND
// every pin is gone, in either order.
func TestStreamEpochRelease(t *testing.T) {
	mk := func() (*Stream, *int) {
		g := graph.MustBuild(8, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{})
		released := 0
		g.SetCloser(func() error { released++; return nil })
		return New(g, Options{}), &released
	}

	// Commit first, close pin second.
	s, released := mk()
	pin := s.Pin()
	s.Add(4, 5)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if *released != 0 {
		t.Fatal("epoch released while still pinned")
	}
	pin.Close()
	if *released != 1 {
		t.Fatalf("released = %d after last pin closed, want 1", *released)
	}

	// Close pin first, commit second.
	s2, released2 := mk()
	pin2 := s2.Pin()
	pin2.Close()
	if *released2 != 0 {
		t.Fatal("epoch released while still current")
	}
	s2.Add(4, 5)
	if _, err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if *released2 != 1 {
		t.Fatalf("released = %d after supersede, want 1", *released2)
	}

	// Stream Close releases the final epoch.
	s3, released3 := mk()
	s3.Close()
	if *released3 != 1 {
		t.Fatalf("released = %d after stream close, want 1", *released3)
	}
	if s3.Pin() != nil {
		t.Fatal("Pin after Close must return nil")
	}
	if err := s3.Add(0, 2); err == nil {
		t.Fatal("Add after Close must error")
	}
	if _, err := s3.Commit(); err == nil {
		t.Fatal("Commit after Close must error")
	}
	s.Close()
	s2.Close()
}

func TestStreamCommitStats(t *testing.T) {
	g := graph.MustBuild(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}},
		graph.BuildOptions{Weighted: true})
	s := New(g, Options{})
	defer s.Close()
	s.AddWeighted(0, 1, 9) // update
	s.Add(3, 4)            // added
	s.Delete(1, 2)         // deleted
	s.Delete(4, 5)         // absent: no-op
	st, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 1 || st.Updated != 1 || st.Deleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Seq != 1 || st.Edges != 2 || st.Vertices != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Empty commit: no new epoch.
	st2, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Seq != 1 || st2.Edges != 2 {
		t.Fatalf("empty commit stats = %+v", st2)
	}
}

func TestStreamLastWriteWins(t *testing.T) {
	s, err := NewEmpty(5, false, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddWeighted(0, 1, 3)
	s.Delete(1, 0) // overwrites the add (same canonical pair)
	s.AddWeighted(2, 3, 1)
	s.AddWeighted(3, 2, 7) // last write wins
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e := s.Pin()
	defer e.Close()
	if e.Graph().HasEdge(0, 1) {
		t.Fatal("delete-after-add must win")
	}
	if w := e.Graph().Weights(2); len(w) != 1 || w[0] != 7 {
		t.Fatalf("weights(2) = %v, want [7]", w)
	}
}

func TestStreamAutoCommit(t *testing.T) {
	s, err := NewEmpty(100, false, false, Options{MaxPending: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int32(0); i < 25; i++ {
		if err := s.Add(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Seq() != 2 {
		t.Fatalf("seq = %d, want 2 auto-commits", s.Seq())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
}

func TestStreamErrors(t *testing.T) {
	s, err := NewEmpty(4, false, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add(0, 4); err == nil {
		t.Fatal("out-of-range add must error")
	}
	if err := s.Delete(-1, 0); err == nil {
		t.Fatal("out-of-range delete must error")
	}
	if err := s.Add(2, 2); err != nil {
		t.Fatalf("self-loop must be ignored, got %v", err)
	}
	if s.Pending() != 0 {
		t.Fatal("self-loop must not buffer")
	}
}
