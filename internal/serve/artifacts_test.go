package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"snap/internal/centrality"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/ingest"
)

type rankResp struct {
	Seq   uint64    `json:"seq"`
	Top   []int32   `json:"top"`
	Score []float64 `json:"score"`
	Error string    `json:"error"`
}

func answerRank(t *testing.T, s *Server, k int) rankResp {
	t.Helper()
	body, code := s.Answer(context.Background(), "live", "centrality", fmt.Sprintf("kind=pagerank&k=%d", k))
	var r rankResp
	if err := json.Unmarshal(body, &r); err != nil || code != 200 {
		t.Fatalf("pagerank k=%d: status %d, %s (%v)", k, code, body, err)
	}
	return r
}

func newStreamServer(t *testing.T, base *graph.Graph) (*Server, *ingest.Stream) {
	t.Helper()
	st := ingest.New(base, ingest.Options{})
	t.Cleanup(func() { st.Close() })
	s := New(Config{CoalesceWindow: -1})
	if err := s.RegisterStream("live", st); err != nil {
		t.Fatal(err)
	}
	return s, st
}

// commitRandomBatch stages adds of random pairs and deletes of random
// existing edges, then commits.
func commitRandomBatch(t *testing.T, st *ingest.Stream, rng *rand.Rand, adds, dels int) {
	t.Helper()
	e := st.Pin()
	ends := e.Graph().EdgeEndpoints()
	e.Close()
	n := int32(st.NumVertices())
	for i := 0; i < dels; i++ {
		d := ends[rng.Intn(len(ends))]
		if err := st.Delete(d.U, d.V); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < adds; i++ {
		if err := st.Add(rng.Int31n(n), rng.Int31n(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankChainMatchesCold is the chain's contract: on every epoch
// of a stream the served PageRank — warm-started from the previous
// epoch's vector — ranks the same top-10 as cold centrality.PageRank
// on that epoch's graph, agrees with it within 1e-8 per vertex, sums
// to 1, and is built once however many requests race for it.
func TestPageRankChainMatchesCold(t *testing.T) {
	base := generate.RMAT(1<<10, 1<<12, generate.DefaultRMAT(), 7)
	n := base.NumVertices()
	s, st := newStreamServer(t, base)
	rng := rand.New(rand.NewSource(11))
	const commits = 9
	for c := 0; c <= commits; c++ {
		if c > 0 {
			commitRandomBatch(t, st, rng, 40, 12)
		}
		// Concurrent first touches with distinct k: each misses the
		// result cache, all share one artifact build.
		var wg sync.WaitGroup
		for k := 1; k <= 4; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if _, code := s.Answer(context.Background(), "live", "centrality", fmt.Sprintf("kind=pagerank&k=%d", k)); code != 200 {
					t.Errorf("epoch %d k=%d: status %d", c, k, code)
				}
			}(k)
		}
		wg.Wait()
		all := answerRank(t, s, n)

		e := st.Pin()
		cold := centrality.PageRank(e.Graph(), centrality.PageRankOptions{})
		e.Close()
		if all.Seq != uint64(c) || len(all.Top) != n {
			t.Fatalf("epoch %d: answer has seq %d and %d ids", c, all.Seq, len(all.Top))
		}
		var sum float64
		for i, v := range all.Top {
			sum += all.Score[i]
			if d := math.Abs(all.Score[i] - cold[v]); d > 1e-8 {
				t.Fatalf("epoch %d: vertex %d chained %g vs cold %g (diff %g)", c, v, all.Score[i], cold[v], d)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("epoch %d: scores sum to %g", c, sum)
		}
		want := centrality.TopKVertices(cold, 10)
		for i, v := range want {
			if all.Top[i] != v {
				t.Fatalf("epoch %d: top[%d] = %d, cold ranks %d", c, i, all.Top[i], v)
			}
		}
		stats := s.Snapshot()
		if stats.ArtifactBuilds != uint64(c+1) || stats.ArtifactWarmBuilds != uint64(c) {
			t.Fatalf("epoch %d: artifact_builds=%d artifact_warm_builds=%d, want %d and %d",
				c, stats.ArtifactBuilds, stats.ArtifactWarmBuilds, c+1, c)
		}
	}
}

// TestPinnedReaderDoesNotRollCacheBack: a request still pinned to
// epoch k that reaches the artifact cache after epoch k+2's artifacts
// exist gets its own epoch's answer, and the newer artifacts and warm
// vector survive it.
func TestPinnedReaderDoesNotRollCacheBack(t *testing.T) {
	base := generate.RMAT(1<<9, 1<<11, generate.DefaultRMAT(), 3)
	s, st := newStreamServer(t, base)
	h := s.lookup("live")
	rng := rand.New(rand.NewSource(5))

	oldG, oldSeq, release, err := h.pin()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	commitRandomBatch(t, st, rng, 200, 50)
	commitRandomBatch(t, st, rng, 200, 50)
	newest := answerRank(t, s, 5)
	if newest.Seq != oldSeq+2 {
		t.Fatalf("newest answer is epoch %d, want %d", newest.Seq, oldSeq+2)
	}
	warm := h.art.warmStart()
	builds := s.Snapshot().ArtifactBuilds

	got, err := s.centralityScores(h, oldG, oldSeq, "pagerank")
	if err != nil {
		t.Fatal(err)
	}
	cold := centrality.PageRank(oldG, centrality.PageRankOptions{})
	for v := range cold {
		if d := math.Abs(got[v] - cold[v]); d > 1e-8 {
			t.Fatalf("pinned epoch %d: vertex %d %g vs cold %g", oldSeq, v, got[v], cold[v])
		}
	}
	if s.Snapshot().ArtifactBuilds != builds+1 {
		t.Fatal("the superseded epoch's request did not build for itself")
	}
	if w := h.art.warmStart(); &w[0] != &warm[0] {
		t.Fatal("the superseded epoch's build replaced the warm vector")
	}
	// The newest epoch's artifact is still there: a result-cache miss
	// on it (new k) builds nothing.
	if again := answerRank(t, s, 6); again.Seq != newest.Seq || again.Score[0] != newest.Score[0] {
		t.Fatalf("newest epoch re-answered differently: %+v vs %+v", again, newest)
	}
	if got := s.Snapshot().ArtifactBuilds; got != builds+1 {
		t.Fatalf("newest epoch's artifact was evicted: %d builds, want %d", got, builds+1)
	}
}

// TestArtifactCacheWarmSlot drives the cache directly through the
// orderings a live server can produce: only finished builds land in
// the warm slot, and a newer epoch's vector is never replaced by an
// older one.
func TestArtifactCacheWarmSlot(t *testing.T) {
	var a artifactCache
	vec := func(x float64) []float64 { return []float64{x} }
	build := func(v []float64) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	warmIs := func(want []float64) {
		t.Helper()
		got := a.warmStart()
		if (want == nil) != (got == nil) || (want != nil && got[0] != want[0]) {
			t.Fatalf("warm slot holds %v, want %v", got, want)
		}
	}

	warmIs(nil)
	// Epoch 1's build is still running when the cache rolls to 2.
	started, finish := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.get(1, kindPageRank, func() (any, error) {
			close(started)
			<-finish
			return vec(1), nil
		})
	}()
	<-started
	if _, err := a.get(2, "components", build(nil)); err != nil {
		t.Fatal(err)
	}
	warmIs(nil) // nothing finished yet, nothing partial
	close(finish)
	<-done
	warmIs(vec(1)) // the overtaken build still seeds the chain

	// A failed build leaves the slot and is retried.
	boom := errors.New("boom")
	if _, err := a.get(2, kindPageRank, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build returned %v", err)
	}
	warmIs(vec(1))
	if _, err := a.get(2, kindPageRank, build(vec(2))); err != nil {
		t.Fatal(err)
	}
	warmIs(vec(2))

	// A request for a superseded epoch builds privately: no slot, no
	// cache entry, and epoch 2's artifact is still served.
	calls := 0
	for i := 0; i < 2; i++ {
		v, _ := a.get(1, kindPageRank, func() (any, error) { calls++; return vec(-1), nil })
		if v.([]float64)[0] != -1 {
			t.Fatal("superseded epoch got another epoch's artifact")
		}
	}
	if calls != 2 {
		t.Fatalf("superseded epoch built %d times, want 2 (uncached)", calls)
	}
	warmIs(vec(2))
	if v, _ := a.get(2, kindPageRank, build(vec(-2))); v.([]float64)[0] != 2 {
		t.Fatal("epoch 2's artifact was evicted by the superseded epoch's request")
	}

	// An epoch-3 build that finishes after epoch 4's does not replace it.
	started, finish, done = make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		a.get(3, kindPageRank, func() (any, error) {
			close(started)
			<-finish
			return vec(3), nil
		})
	}()
	<-started
	if _, err := a.get(4, kindPageRank, build(vec(4))); err != nil {
		t.Fatal(err)
	}
	close(finish)
	<-done
	warmIs(vec(4))
}

// TestWarmVectorOfWrongLengthFallsBackCold: a warm vector that does
// not fit the pinned graph is ignored, not trusted — the build is the
// cold one, bit for bit, and is not counted as warm.
func TestWarmVectorOfWrongLengthFallsBackCold(t *testing.T) {
	base := generate.RMAT(1<<9, 1<<11, generate.DefaultRMAT(), 3)
	s, st := newStreamServer(t, base)
	h := s.lookup("live")
	h.art.warm = []float64{0.5, 0.5}
	got := answerRank(t, s, 10)
	e := st.Pin()
	defer e.Close()
	cold := centrality.PageRank(e.Graph(), centrality.PageRankOptions{})
	for i, v := range got.Top {
		if got.Score[i] != cold[v] {
			t.Fatalf("vertex %d: %g, cold %g", v, got.Score[i], cold[v])
		}
	}
	if st := s.Snapshot(); st.ArtifactBuilds != 1 || st.ArtifactWarmBuilds != 0 {
		t.Fatalf("builds=%d warm=%d, want 1 and 0", st.ArtifactBuilds, st.ArtifactWarmBuilds)
	}
}

// TestDirectedStreamRebuildsCold pins the documented limit of the
// chain: the warm polish sweeps undirected rows only, so every epoch of
// a directed stream is the cold build, bit for bit.
func TestDirectedStreamRebuildsCold(t *testing.T) {
	und := generate.RMAT(1<<8, 1<<10, generate.DefaultRMAT(), 4)
	base := graph.MustBuild(und.NumVertices(), und.EdgeEndpoints(), graph.BuildOptions{Directed: true})
	s, st := newStreamServer(t, base)
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 3; c++ {
		if c > 0 {
			commitRandomBatch(t, st, rng, 30, 10)
		}
		got := answerRank(t, s, 10)
		e := st.Pin()
		cold := centrality.PageRank(e.Graph(), centrality.PageRankOptions{})
		e.Close()
		for i, v := range got.Top {
			if got.Score[i] != cold[v] {
				t.Fatalf("epoch %d: vertex %d %g, cold %g", c, v, got.Score[i], cold[v])
			}
		}
	}
	if st := s.Snapshot(); st.ArtifactBuilds != 3 || st.ArtifactWarmBuilds != 0 {
		t.Fatalf("builds=%d warm=%d, want 3 and 0", st.ArtifactBuilds, st.ArtifactWarmBuilds)
	}
}

// TestWarmBuildAllocs: once the pooled sweep workspace is sized, a
// chained build allocates the vector it publishes and nothing else.
func TestWarmBuildAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-mode sync.Pool drops the pooled workspace at random")
	}
	g := generate.RMAT(1<<10, 1<<12, generate.DefaultRMAT(), 7)
	opt := centrality.PageRankOptions{}
	prev := centrality.PageRank(g, opt)
	next, err := graph.MergeDelta(g, []graph.Edge{{U: 1, V: 900}, {U: 2, V: 901}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	centrality.PageRankFrom(next, prev, opt)
	if allocs := testing.AllocsPerRun(10, func() { centrality.PageRankFrom(next, prev, opt) }); allocs != 1 {
		t.Fatalf("warm build: %v allocs, want 1 (the published vector)", allocs)
	}
}

// TestStatsFields pins the /stats vocabulary: the two artifact
// counters are there and no earlier field changed name.
func TestStatsFields(t *testing.T) {
	s, _ := newTestServer(t, Config{}, testGraph(t))
	var got map[string]any
	if err := json.Unmarshal(s.statsJSON(), &got); err != nil {
		t.Fatal(err)
	}
	want := []string{"cache_hits", "cache_misses", "cache_entries", "cache_bytes", "batches",
		"batched_requests", "dedup_saved", "rejected", "graphs", "artifact_builds", "artifact_warm_builds"}
	if len(got) != len(want) {
		t.Fatalf("/stats has %d fields, want %d: %v", len(got), len(want), got)
	}
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Fatalf("/stats lacks %q: %v", k, got)
		}
	}
}
