package bench

import (
	"fmt"

	"snap/internal/community"
	"snap/internal/datasets"
)

// Table2 reproduces the paper's Table 2: modularity achieved by GN,
// pBD, pMA, and pLA on six community-detection benchmarks, against the
// best-known score. Every network except Karate is a documented
// synthetic surrogate (see internal/datasets), so the comparison is
// about relative algorithm quality, not the absolute historical
// values; both the paper's numbers and ours are printed.
func Table2(cfg Config) {
	cfg.fill()
	w := cfg.Out
	fmt.Fprintf(w, "== Table 2: modularity Q per algorithm (paper value in parentheses) ==\n")
	fmt.Fprintf(w, "Instances marked * are synthetic surrogates of the paper's data sets.\n\n")
	fmt.Fprintf(w, "%-16s %6s %14s %14s %14s %14s %16s\n",
		"Network", "n", "GN", "pBD", "pMA", "pLA", "Best known")

	for _, net := range datasets.Table2() {
		g := net.Build(1.0)
		n := g.NumVertices()

		gnCell := "-"
		if n <= cfg.GNMaxN {
			patience := 0
			if g.NumEdges() > 3000 {
				patience = 1500
			}
			best, _ := community.GirvanNewman(g, community.GNOptions{Patience: patience})
			gnCell = fmt.Sprintf("%.3f", best.Q)
		}

		// Table-2 instances are small, so pBD runs mostly in its exact
		// per-component regime (SwitchThreshold 2048) with a generous
		// sample floor above it — the paper's Table 2 shows pBD within
		// a few hundredths of GN, which is this configuration.
		pbd, _ := community.PBD(g, community.PBDOptions{
			Seed:               cfg.Seed,
			UseBridgeHeuristic: true,
			SampleFraction:     0.10,
			MinSamples:         48,
			SwitchThreshold:    2048,
			RefreshInterval:    8,
			Patience:           patienceFor(g.NumEdges()),
		})
		pma, _ := community.PMA(g, community.PMAOptions{StopWhenNegative: true})
		pla := community.PLA(g, community.PLAOptions{Seed: cfg.Seed})

		bestCell := "-"
		if n <= 20000 {
			best := community.Anneal(g, 40*n, cfg.Seed)
			bestCell = fmt.Sprintf("%.3f", best.Q)
		}

		label := net.Label
		if net.Surrogate {
			label += "*"
		}
		fmt.Fprintf(w, "%-16s %6d %6s (%.3f) %6.3f (%.3f) %6.3f (%.3f) %6.3f (%.3f) %8s (%.3f)\n",
			label, n,
			gnCell, net.GNQ,
			pbd.Q, net.PBDQ,
			pma.Q, net.PMAQ,
			pla.Q, net.PLAQ,
			bestCell, net.BestKnownQ)
	}
	fmt.Fprintln(w)
}

// patienceFor picks a pBD stopping patience proportional to instance
// size: small graphs run the full trajectory (patience 0 = disabled).
func patienceFor(m int) int {
	if m <= 3000 {
		return 0
	}
	p := m / 10
	if p < 500 {
		p = 500
	}
	if p > 3000 {
		p = 3000
	}
	return p
}

// Table3 prints the paper's Table 3 data-set inventory next to the
// instances this harness actually builds at the configured scale.
func Table3(cfg Config) {
	cfg.fill()
	w := cfg.Out
	fmt.Fprintf(w, "== Table 3: large small-world instances (built at scale %.3g) ==\n\n", cfg.Scale)
	fmt.Fprintf(w, "%-10s %-44s %10s %10s %10s %10s %10s\n",
		"Label", "Type", "paper n", "paper m", "built n", "built m", "dir")
	for _, net := range datasets.Table3() {
		g := net.Build(cfg.Scale)
		dir := "undir"
		if net.Directed {
			dir = "dir"
		}
		fmt.Fprintf(w, "%-10s %-44s %10d %10d %10d %10d %10s\n",
			net.Label, net.Description, net.PaperN, net.PaperM,
			g.NumVertices(), g.NumEdges(), dir)
	}
	fmt.Fprintln(w)
}
