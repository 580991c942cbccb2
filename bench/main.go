// Command bench is the repository's benchmark: four fixed-rate workloads
// driven through internal/job on the wall clock with every modelled delay
// zeroed, so that each number is the engine's own overhead. README.md in
// this directory says why each workload and metric exists.
//
//	bash bench/run.sh --workload trickle-grid --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # all four workloads
//	bash bench/run.sh --trace 1            # the traced pass: per-layer metrics and bench/out/trace.json
//	bash bench/run.sh --json a.jsonl       # append each result to a file
//	bash bench/run.sh --compare a.jsonl b.jsonl
//	bash bench/run.sh --diagnostics        # sustainable rate ladder and GOMAXPROCS=1 baseline
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only if
// every output was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"

	"repro/internal/timex"
)

// wall is the only clock the harness reads.
var wall = timex.NewReal()

var processStart = wall.Now()

// result is one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Traced    bool      `json:"traced"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Env       env       `json:"env"`
}

// env says where a result was measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// defs is the table of metrics a run of this kind must produce.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// complete fills in units and reports any declared metric the run did
// not produce, or produced without being declared.
func (r *result) complete() error {
	defs := r.defs()
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: declared metric %s was not measured", r.Workload, d.name)
		}
		m.Unit = d.unit
		r.Metrics[d.name] = m
	}
	return nil
}

// print writes every metric by name with unit and sample count, then the
// one-line JSON object the driver reads.
func (r *result) print() {
	fmt.Printf("== %s  seed=%d  window=%ds  traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, d := range r.defs() {
		m := r.Metrics[d.name]
		fmt.Printf("%-42s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
	if r.Traced {
		hop, self := r.Metrics["runtime.hop_cpu_ns"].Value, r.Metrics["runtime.self_ns_per_hop"].Value
		fmt.Printf("%-42s %14.1f %-6s of runtime.hop_cpu_ns is not covered by a driver\n", "residual share", 100*self/hop, "%")
	}
	fmt.Printf("%-42s %14d\n%-42s %14d\n", "attempted_ops", r.Attempted, "failed_ops", r.Failed)
	for _, p := range r.Problems {
		fmt.Println("FAILED:", p)
	}
	for _, n := range r.Notes {
		fmt.Println("NOTE:", n)
	}
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]bare{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = bare{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(out))
}

// appendJSON adds r as one line to path.
func appendJSON(path string, r result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the engine's randomness and of the payload keys")
		seconds = flag.Int("seconds", 15, "measured window in seconds, at least 10")
		trace   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and out/trace.json")
		jsonOut = flag.String("json", "", "append each result to this file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
		diag    = flag.Bool("diagnostics", false, "print the sizing diagnostics instead: sustainable rate and single-threaded CPU per event")
	)
	flag.Parse()
	var err error
	switch {
	case *diag:
		err = runDiagnostics(*seed)
	case *compare && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare needs two result files")
	default:
		err = run(*name, *seed, *seconds, *trace == 1, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures the named workload, or all of them, and prints each result.
func run(name string, seed int64, seconds int, traced bool, jsonOut string) error {
	if seconds < 10 {
		return fmt.Errorf("-seconds %d: the window is never below 10 s", seconds)
	}
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	failed := int64(0)
	for _, w := range selected {
		res, err := runWorkload(w, seed, seconds, tr)
		if err != nil {
			return err
		}
		if err := res.complete(); err != nil {
			return err
		}
		res.Env = currentEnv()
		res.print()
		failed += res.Failed
		if jsonOut != "" {
			if err := appendJSON(jsonOut, res); err != nil {
				return err
			}
		}
	}
	if traced {
		if err := tr.write("bench/out/trace.json"); err != nil { // run.sh runs from the repository root
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
