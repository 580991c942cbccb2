package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// readResults loads the untraced results of a file written with -json,
// as values by workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles applies the end-to-end bounds (the ones BENCHMARK.json
// declares) to two sets of runs, a the parent and b the change, and
// prints one row per workload and metric. A row is unresolved when either
// side's quartile spread is wider than the bound: the runs cannot tell a
// regression of that size from noise. It returns an error if any row is
// worse or unresolved.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-26s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := a[w.name][d.name], b[w.name][d.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma // share of A's median by which B is worse
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "within bound"
			switch {
			case d.name != "setup_s" && (sa > d.bound || sb > d.bound):
				verdict = "UNRESOLVED"
				bad++
			case worse > d.bound:
				verdict = "WORSE"
				bad++
			case worse < -d.bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse or unresolved", bad)
	}
	return nil
}
