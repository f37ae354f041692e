// Command benchmark is the repo's performance record: five seeded,
// work-bounded workloads over the snap facade and the serving tier,
// each executed in identical rounds on one core, every answer checked
// against an oracle, every metric a fast-side quartile over the rounds
// (the end-to-end times piece by piece of the script). See
// README.md for the workloads, the metrics and the measurement rules.
//
//	bash benchmark/run.sh                        # all workloads, end-to-end metrics
//	bash benchmark/run.sh -trace                 # per-layer metrics and spans
//	bash benchmark/run.sh -workload serve-cold -seed 7 -out r.json
//	bash benchmark/run.sh -selfcheck             # A/A: the full set twice
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

// header identifies the machine, the code and the knobs of a run.
// Benchmark is false as soon as a knob differs from its default, so
// that such a run cannot be mistaken for the benchmark.
type header struct {
	Benchmark bool    `json:"benchmark"`
	NumCPU    int     `json:"numcpu"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Rounds    int     `json:"rounds,omitempty"`
	Scale     int     `json:"scale"`
	Traced    bool    `json:"traced"`
	Clients   int     `json:"clients"`
	Counts    counts  `json:"counts"`
}

// outDir receives trace files and the analysis session's scratch
// container; run.sh starts the program in the root of the checkout.
const outDir = "benchmark/out"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := config{outDir: outDir}
	workload := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "time budget of the timed rounds of a workload")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many timed rounds instead of filling -seconds")
	fs.IntVar(&cfg.scale, "scale", 1, "divide graph sizes and repetition counts by this (smoke tests)")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: per-layer metrics, spans in "+outDir+"/trace-<workload>.json")
	out := fs.String("out", "", "also write the results as JSON to this file")
	selfcheck := fs.Bool("selfcheck", false, "run the set twice (A/A) and fail if any end-to-end metric differs by more than its bound")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(driverArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if cfg.scale < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		return 2
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	first, err := runSet(selected, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := exitCode(first)
	if *selfcheck {
		second, err := runSet(selected, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		code = max(code, exitCode(second), printComparison(first, second, true))
	}
	if *out != "" {
		b, _ := json.MarshalIndent(first, "", " ")
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(selected) == 1 {
		printDriverLine(first.Workloads[0], cfg.trace)
	}
	return code
}

// driverArgs rewrites the driver's "--trace 0|1" into the boolean
// flag's "-trace=0|1" form, which package flag requires.
func driverArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if strings.TrimLeft(args[i], "-") == "trace" && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func runSet(selected []workloadSpec, cfg config) (*resultFile, error) {
	rf := &resultFile{Header: header{
		Benchmark: cfg.seconds == defaultSeconds && cfg.rounds == 0 && cfg.scale == 1,
		NumCPU:    runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds, Scale: cfg.scale,
		Traced: cfg.trace, Clients: clients, Counts: countsAt(cfg.scale),
	}}
	h, _ := json.Marshal(rf.Header)
	fmt.Printf("# %s\n", h)
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rf.Workloads = append(rf.Workloads, res)
		printWorkload(res, cfg.trace)
	}
	return rf, nil
}

// commit is git's HEAD when the working directory is a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// reported is the list of metrics a run of this kind prints.
func reported(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printWorkload prints one "workload/metric value unit" line per
// metric. An untraced run also prints the user-level per-layer metrics
// (stage times, qps, commit and refresh latency, allocation), which it
// measures anyway.
func printWorkload(r *workloadResult, traced bool) {
	ms := reported(traced)
	if !traced {
		ms = append(ms[:len(ms):len(ms)], perLayer[:userLevel]...)
	}
	for _, m := range ms {
		v := r.Metrics[m.Name]
		fmt.Printf("%s/%s %.6g %s\n", r.Name, m.Name, v.Value, v.Unit)
	}
	fmt.Printf("%s/fail_frac %g ratio (%d of %d checks failed, %d rounds, GOMAXPROCS %d)\n", r.Name, r.FailFrac, r.Failed, r.Attempted, r.Rounds, r.Procs)
	for _, why := range r.Reasons {
		fmt.Printf("%s/failure %s\n", r.Name, why)
	}
}

// printDriverLine prints the one-object summary the benchmark driver
// reads from the last line of standard output.
func printDriverLine(r *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range reported(traced) {
		line.Metrics[m.Name] = value{r.Metrics[m.Name].Value, m.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Printf("%s\n", b)
}

func exitCode(rf *resultFile) int {
	for _, w := range rf.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}
