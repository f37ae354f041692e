package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareFiles prints the comparison table of two saved result files.
func compareFiles(pathA, pathB string) int {
	var rf [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rf[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return printComparison(&rf[0], &rf[1], false)
}

// printComparison prints, per workload and end-to-end metric, both
// values, by how much b is worse than a as a share of a, and the
// bound. It returns 1 if a row is beyond its bound: in either
// direction for an A/A self-check of one build, in the worse direction
// otherwise. A row whose rounds spread wider than the bound cannot
// resolve a difference of that size and is labelled unresolved.
func printComparison(a, b *resultFile, aa bool) int {
	code := 0
	fmt.Printf("%-14s %-12s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range endToEnd {
				va, vb := wa.Metrics[m.Name], wb.Metrics[m.Name]
				worse := (vb.Value - va.Value) / va.Value
				if m.higherBetter() {
					worse = -worse
				}
				verdict := "ok"
				switch {
				case worse > m.Bound || (aa && math.Abs(worse) > m.Bound):
					verdict, code = "BEYOND BOUND", 1
				case max(iqrShare(va.PerRound), iqrShare(vb.PerRound)) > m.Bound:
					verdict = "unresolved"
				}
				fmt.Printf("%-14s %-12s %12.6g %12.6g %+7.1f%% %5.0f%% %s\n",
					wa.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	return code
}
