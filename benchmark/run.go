package main

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// fixture is a workload set up from a seed. Only round runs inside
// the clock; everything else happens between rounds.
type fixture interface {
	// oracles builds the benchmark's own expected answers.
	oracles()
	// prepare readies per-round product state (a fresh server, a fresh
	// stream) so that every round performs identical work.
	prepare()
	// round executes the script once. tr holds one tracer per client,
	// nil when the round is untraced.
	round(tr [clients]*tracer) roundOut
	// verify checks the round's answers against the oracles and adds
	// the exact-value metrics they yield.
	verify(out *roundOut)
	// replay, in the traced run only, repeats the script through the
	// layers' own entry points (Answer, pooled kernels, Stream.Commit,
	// MergeDelta), so that the untraced run measures only what a user
	// does. Metrics that are not a span median go into vals.
	replay(tr [clients]*tracer, vals map[string]float64)
	close()
}

// roundOut is what one round measured.
type roundOut struct {
	wall    time.Duration
	segs    []time.Duration // wall time of each part of the script between two barriers, in script order
	ops     int             // sessions or requests completed: the "op" of qps and alloc_kb_op
	dist    []time.Duration // latency of every distance operation (bfs, sssp), in script order
	vals    map[string]float64
	checked int // answers checked
	fails   failures
}

// metricValue is one reported number and the rounds behind it.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	PerRound []float64 `json:"per_round"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Procs     int                    `json:"gomaxprocs"`
	Rounds    int                    `json:"rounds"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailFrac  float64                `json:"fail_frac"`
	Reasons   []string               `json:"fail_reasons,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRepeats is how often set-up is timed; setup_s reports the
// median so that one slow page-fault storm does not decide it.
const setupRepeats = 3

func runWorkload(w workloadSpec, cfg config) (*workloadResult, error) {
	runtime.GOMAXPROCS(procs)
	res := &workloadResult{Name: w.Name, Procs: runtime.GOMAXPROCS(0), Metrics: map[string]metricValue{}}
	series := map[string][]float64{} // per-round values of every metric
	record := func(vals map[string]float64) {
		for name, v := range vals {
			series[name] = append(series[name], v)
		}
	}

	// Set-up, timed: inputs from the seed, product state, warm caches.
	var fx fixture
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC()
		t0 := time.Now()
		fx = w.setup(cfg)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { fx.close() }()
	fx.oracles()

	var fails failures
	runRound := func(tr [clients]*tracer) roundOut {
		fx.prepare()
		runtime.GC()
		before := heapAllocBytes()
		out := fx.round(tr)
		out.vals["alloc_kb_op"] = float64(heapAllocBytes()-before) / 1e3 / float64(out.ops)
		fx.verify(&out)
		res.Attempted += out.checked
		fails.merge(out.fails)
		return out
	}

	// One tracer per client, reused by every traced round; the warm-up
	// round sizes their buffers so that no traced round grows them.
	origin := time.Now()
	var tr [clients]*tracer
	if cfg.trace {
		for c := range tr {
			tr[c] = newTracer(origin, int32(c)<<28)
		}
	}

	// The first round is never timed: pools fill, lazy per-graph state
	// is built, pages fault in. Its cost is part of set-up, which is
	// where work moved out of the timed rounds must show.
	warm := runRound(tr)
	series["setup_s"] = []float64{median(setups) + warm.wall.Seconds()}

	// Timed rounds of identical work, as many as the budget holds. In a
	// traced run every second round records spans and the others are
	// the untraced baseline of the tracing overhead.
	var segRounds, tracedSegRounds [][]time.Duration
	var distRounds [][]int32 // nanoseconds; serve-hot keeps a million per round
	var longest time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.rounds > 0 && i >= cfg.rounds {
			break
		}
		// Without -rounds: at least three, then as many as still fit.
		if cfg.rounds <= 0 && i >= 3 && (time.Since(start)+longest).Seconds() > cfg.seconds {
			break
		}
		roundStart := time.Now()
		res.Rounds++
		if cfg.trace && i%2 == 1 {
			for _, t := range tr {
				t.reset(int32(i))
			}
			out := runRound(tr)
			tracedSegRounds = append(tracedSegRounds, slices.Clone(out.segs))
			record(spanValues(slices.Concat(tr[0].spans, tr[1].spans)))
			longest = max(longest, time.Since(roundStart))
			continue
		}
		out := runRound([clients]*tracer{})
		segRounds = append(segRounds, slices.Clone(out.segs))
		ns := make([]int32, len(out.dist))
		for i, d := range out.dist {
			ns[i] = int32(min(d, math.MaxInt32))
		}
		distRounds = append(distRounds, ns)
		slices.Sort(out.dist)
		out.vals["round_s"] = out.wall.Seconds()
		out.vals["p50_ms"] = ms(percentile(out.dist, 0.50))
		out.vals["p90_ms"] = ms(percentile(out.dist, 0.90))
		out.vals["qps"] = float64(out.ops) / out.wall.Seconds()
		record(out.vals)
		longest = max(longest, time.Since(roundStart))
	}
	// The end-to-end times are taken piece by piece across the rounds,
	// not round by round: see fastPerOp. Their per-round values stay in
	// the result file for diagnosis.
	roundTime := sumDur(fastPerOp(segRounds))
	lat := fastPerOp(distRounds)
	slices.Sort(lat)

	if cfg.trace {
		var rp [clients]*tracer
		for c := range rp {
			rp[c] = newTracer(origin, int32(clients+c)<<28)
		}
		vals := map[string]float64{}
		fx.replay(rp, vals)
		record(vals)
		record(spanValues(slices.Concat(rp[0].spans, rp[1].spans)))
		if len(tracedSegRounds) > 0 {
			series["trace.overhead_frac"] = []float64{float64(sumDur(fastPerOp(tracedSegRounds))-roundTime) / float64(roundTime)}
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
		if err := writeTrace(path, w.Name, cfg.seed, tr[0].spans, tr[1].spans, rp[0].spans, rp[1].spans); err != nil {
			return nil, err
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	series["peak_rss_mb"] = []float64{float64(ru.Maxrss) / 1024} // Linux counts kB

	for _, m := range slices.Concat(endToEnd, perLayer) {
		vals := series[m.Name]
		if len(vals) == 0 {
			vals = []float64{0} // a layer this workload never calls did no work
		}
		res.Metrics[m.Name] = metricValue{
			Value: fastQuartile(vals, m.higherBetter()), Unit: m.Unit,
			Min: slices.Min(vals), Median: median(vals), PerRound: vals,
		}
	}
	acrossRounds(res.Metrics, "round_s", roundTime.Seconds())
	acrossRounds(res.Metrics, "p50_ms", float64(percentile(lat, 0.50))/1e6)
	acrossRounds(res.Metrics, "p90_ms", float64(percentile(lat, 0.90))/1e6)
	difference(res.Metrics, "serve.http_overhead_us", "serve.http_hit_us", "serve.answer_hit_us")
	difference(res.Metrics, "serve.miss_overhead_ms", "serve.answer_miss_ms", "serve.kernel_miss_ms")
	res.Failed, res.Reasons = fails.n, fails.reasons
	res.FailFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

func sumDur(ds []time.Duration) (sum time.Duration) {
	for _, d := range ds {
		sum += d
	}
	return sum
}

// acrossRounds replaces a metric's reported value and keeps its rounds.
func acrossRounds(ms map[string]metricValue, name string, v float64) {
	m := ms[name]
	m.Value = v
	ms[name] = m
}

// difference reports name as the reported value of a minus that of b.
func difference(ms map[string]metricValue, name, a, b string) {
	d := ms[a].Value - ms[b].Value
	m := ms[name]
	m.Value, m.Min, m.Median, m.PerRound = d, d, d, []float64{d}
	ms[name] = m
}

// spanValues turns one round's spans into per-layer values: for each
// span name the median duration in its metric's unit, and for each
// layer (the name's prefix) the mean heap allocation of its calls.
func spanValues(spans []span) map[string]float64 {
	durs := map[string][]float64{}
	type allocs struct{ bytes, calls int64 }
	byLayer := map[string]allocs{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		if s.hasAlloc {
			layer, _, _ := strings.Cut(s.Name, ".")
			a := byLayer[layer]
			byLayer[layer] = allocs{a.bytes + s.Alloc, a.calls + 1}
		}
	}
	vals := map[string]float64{}
	for name, d := range durs {
		if m, ok := spanMetrics[name]; ok {
			vals[m.metric] = median(d) * m.perNS
		}
	}
	for layer, a := range byLayer {
		vals[layer+".alloc_kb"] = float64(a.bytes) / 1e3 / float64(a.calls)
	}
	return vals
}
