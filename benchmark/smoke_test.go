package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T) config {
	return config{seed: 1, seconds: defaultSeconds, rounds: 2, scale: 10, trace: true, outDir: t.TempDir()}
}

// measuredOn lists, per workload, per-layer metrics that must be
// non-zero there: the layers its script calls.
var measuredOn = map[string][]string{
	"analyze-rmat": {"load_s", "traverse_s", "rank_s", "cluster_s", "graph.read_text_ms", "graph.build_ms", "container.write_ms",
		"container.map_us", "bfs.run_ms", "bfs.mteps", "bfs.levels", "sssp.run_ms", "sssp.mteps", "components.run_ms",
		"centrality.pagerank_ms", "sketch.anf_ms", "sketch.closeness_ms", "community.louvain_ms", "community.modularity",
		"community.count", "partition.kway_ms", "partition.edgecut", "partition.imbalance", "bfs.alloc_kb", "graph.alloc_kb"},
	"serve-hot":  {"qps", "serve.http_hit_us", "serve.answer_hit_us", "serve.cache_hit_ratio"},
	"serve-cold": {"qps", "serve.answer_miss_ms", "serve.kernel_miss_ms", "serve.batch_size"},
	"serve-ingest": {"qps", "commit_ms", "refresh_ms", "graph.merge_delta_ms", "ingest.add_us_edge", "ingest.commit_ms", "ingest.alloc_kb",
		"serve.edges_post_ms", "serve.commit_post_ms", "serve.artifact_pagerank_ms", "serve.artifact_components_ms", "serve.batch_size"},
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, res.Failed, res.Attempted, res.Reasons)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.Name]; !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s/%s = %v %q, want a positive finite number of %s", w.Name, m.Name, v.Value, v.Unit, m.Unit)
			}
		}
		for _, m := range perLayer {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s/%s = %v %q (present: %v), want a finite number of %s", w.Name, m.Name, v.Value, v.Unit, ok, m.Unit)
			}
		}
		for _, name := range measuredOn[strings.Replace(w.Name, "-road", "-rmat", 1)] {
			if v := res.Metrics[name].Value; !(v > 0) {
				t.Errorf("%s/%s = %v, want the layer measured", w.Name, name, v)
			}
		}
		hit := res.Metrics["serve.cache_hit_ratio"].Value
		if (w.Name == "serve-hot" && hit != 1) || (w.Name == "serve-cold" && hit != 0) {
			t.Errorf("%s: cache hit ratio %v", w.Name, hit)
		}
	}
}

// A deliberately damaged answer must raise fail_frac and the exit code.
func TestCorruptAnswerFails(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig(t)
		cfg.trace, cfg.rounds, cfg.corrupt = false, 1, true
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed == 0 || res.FailFrac <= 0 || exitCode(&resultFile{Workloads: []*workloadResult{res}}) == 0 {
			t.Errorf("%s: corrupted answer went unnoticed: failed=%d fail_frac=%v", w.Name, res.Failed, res.FailFrac)
		}
	}
}

func TestFastQuartile(t *testing.T) {
	seven := []float64{5, 3, 9, 1, 7, 2, 8}
	for _, tc := range []struct {
		vals   []float64
		higher bool
		want   float64
	}{
		{seven, false, 2}, // 2nd fastest time of 7
		{seven, true, 8},  // 2nd highest rate of 7
		{seven[:4], false, 1},
		{seven[:5], false, 3},
		{seven[:1], true, 5},
	} {
		if got := fastQuartile(tc.vals, tc.higher); got != tc.want {
			t.Errorf("fastQuartile(%v, higher=%v) = %v, want %v", tc.vals, tc.higher, got, tc.want)
		}
	}
	if seven[0] != 5 {
		t.Error("fastQuartile reordered its input")
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	if got, want := iqrShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// A burst that slows a different piece of the script in every round
// must leave no trace in the per-piece statistic.
func TestFastPerOp(t *testing.T) {
	rounds := [][]time.Duration{{10, 20, 30}, {90, 20, 30}, {10, 90, 30}, {10, 20, 90}, {11, 21, 31}}
	if got, want := fastPerOp(rounds), []time.Duration{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastPerOp = %v, want %v", got, want)
	}
	if got := fastPerOp([][]int32{{7, 5}}); !reflect.DeepEqual(got, []int32{7, 5}) {
		t.Errorf("fastPerOp of one round = %v", got)
	}
	if got := fastPerOp[int32](nil); got != nil {
		t.Errorf("fastPerOp of no round = %v", got)
	}
	if got, want := parts(11, 4), [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 11}}; !reflect.DeepEqual(got, want) {
		t.Errorf("parts(11, 4) = %v, want %v", got, want)
	}
	if got, want := parts(2, 5), [][2]int{{0, 1}, {1, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("parts(2, 5) = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1: union covers 10..60
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past the parent: only 90..100 counts
		{ID: 4, Parent: 1, Start: 15, End: 20},    // grandchild: no effect on the root
		{ID: 5, Parent: -1, Start: 200, End: 230}, // childless root
	}
	want := map[int32]int64{0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 30, 4: 5, 5: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1, 0, true)) // must not panic
	tr := newTracer(time.Now(), 100)
	root := tr.begin("session", -1, 0, false)
	kid := tr.begin("bfs.run", root, 1, true)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].ID != 100 || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("spans = %+v", tr.spans)
	}
	tr.reset(3)
	if len(tr.spans) != 0 || tr.round != 3 {
		t.Errorf("reset left %+v", tr)
	}
}

func TestDriverArgs(t *testing.T) {
	got := driverArgs([]string{"--workload", "serve-hot", "--seed", "3", "--seconds", "12", "--trace", "1"})
	want := []string{"--workload", "serve-hot", "--seed", "3", "--seconds", "12", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driverArgs = %v, want %v", got, want)
	}
	if got := driverArgs([]string{"-trace", "-seed", "3"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "3"}) {
		t.Errorf("driverArgs changed a plain boolean flag: %v", got)
	}
}

// BENCHMARK.json repeats the tables of spec.go; they must agree.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default is %v", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nspec.go has %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, spec.go has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
	}
}
