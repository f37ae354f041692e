package snap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeAllowlist names the exported declarations of snap.go that stay
// although no caller outside the facade's own tests reaches them as
// snap.<Name>, each with its reason: an item of DESIGN.md §1's paper
// list, or the binary or serve op that calls the function it wraps.
var facadeAllowlist = map[string]string{
	"AvgNeighborDegree":      "§1.4 average neighbor connectivity; cmd/snap-analyze -metrics",
	"AvgPathLength":          "§1.4 average shortest path length; cmd/snap-analyze -metrics",
	"Closeness":              "§1.3 closeness centrality; cmd/snap-analyze -centrality closeness",
	"ClusteringCoefficient":  "§1.4 clustering coefficient; cmd/snap-analyze -metrics, serve op subgraph",
	"LocalClustering":        "§1.4 clustering coefficient per vertex, pLA's local measure",
	"RichClub":               "§1.4 rich-club coefficient; cmd/snap-analyze -metrics",
	"Diameter":               "§1.4 shortest-path metrics: the exact diameter AvgPathLength only bounds",
	"MST":                    "§1.2 minimum spanning tree; cmd/snap-analyze -components",
	"MultilevelRecursive":    "§1.6 Metis-recur baseline; cmd/snap-partition, snap-bench -table 1",
	"SpectralLanczos":        "§1.6 Chaco-LAN baseline; cmd/snap-partition, snap-bench -table 1",
	"PlantedPartition":       "§1.7 planted-partition generator; cmd/snap-gen -type planted",
	"WattsStrogatz":          "§1.7 Watts–Strogatz generator; cmd/snap-gen -type ws",
	"PreferentialAttachment": "cmd/snap-gen -type ba",
	"RCMOrder":               "§1.1 cache-friendly adjacency: the RCM order Relabel applies",
	"Degeneracy":             "cmd/snap-analyze -metrics",
	"EigenvectorCentrality":  "cmd/snap-analyze -centrality eigenvector",
	"SpectralCommunities":    "cmd/snap-community -algo spectral (paper §6's spectral modularity)",
	"LabelPropagation":       "cmd/snap-community -algo lpa",
	"Undirected":             "cmd/snap-community symmetrizes directed input",
	"WriteDOT":               "cmd/snap-community -dot, cmd/snap-convert -to dot",
	"ReadMETIS":              "cmd/snap-convert -from metis",
	"WriteMETIS":             "cmd/snap-convert -to metis",
	"ReadDIMACS":             "cmd/snap-convert -from dimacs",
	"WriteDIMACS":            "cmd/snap-convert -to dimacs",
	"InducedSubgraph":        "serve op subgraph",
	"NewDistanceOracle":      "serve op estimate (the oracle artifact)",
	"NewStream":              "cmd/snap-serve -stream",
	"Epoch":                  "Stream's pin type (an alias's methods are invisible to this scan)",
	"CommitStats":            "Stream.Commit's result (an alias's methods are invisible to this scan)",
	"ANFStats":               "the type of ANFOptions.Stats (an alias's fields are invisible to this scan)",
	"SSSPStats":              "the type of DeltaSteppingOptions.Stats (an alias's fields are invisible to this scan)",
	"ErrGraphClosed":         "the error a closed graph's kernels and serve return",
}

// facadeCallers are the trees whose snap.<Name> references count as
// reaching an entry: the binaries, the examples, the benchmark module
// and the package examples.
var facadeCallers = []string{"cmd", "examples", "benchmark", "example_test.go"}

// TestFacadeEarnsEntries pins ROADMAP item 4's rule: every exported
// declaration in snap.go is referenced as snap.<Name> by a caller in
// facadeCallers, or appears as a type in the signature of an entry that
// stays, or is allowlisted with a reason. An allowlist entry that is
// no longer declared, or that the scan already reaches, fails too, so
// the surface grows back only through a reviewed allowlist edit.
func TestFacadeEarnsEntries(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "snap.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each exported declaration and the syntax its callers must name:
	// a function's signature, a defined type's underlying type. An
	// alias's right-hand side names internal types only.
	declared := map[string]ast.Node{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						declared[spec.Name.Name] = spec.Type
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.IsExported() {
							declared[name.Name] = nil
						}
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	for _, root := range facadeCallers {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for name := range facadeRefs(f) {
				reached[name] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Close over signatures: an entry that stays keeps every facade
	// type its signature names.
	needed := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		if declared[name] == nil {
			return // a variable: no signature
		}
		ast.Inspect(declared[name], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // a qualified, non-facade name
			case *ast.Ident:
				if _, ok := declared[n.Name]; ok && n.Name != name && !needed[n.Name] {
					needed[n.Name] = true
					keep(n.Name)
				}
			}
			return true
		})
	}
	for name := range declared {
		if reached[name] || facadeAllowlist[name] != "" {
			keep(name)
		}
	}

	var names []string
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !reached[name] && !needed[name] && facadeAllowlist[name] == "" {
			t.Errorf("snap.%s: nothing in %v reaches it, no kept signature names it, and it is not allowlisted", name, facadeCallers)
		}
	}
	for name, why := range facadeAllowlist {
		switch _, ok := declared[name]; {
		case !ok:
			t.Errorf("allowlist names snap.%s, which snap.go no longer declares", name)
		case reached[name]:
			t.Errorf("allowlist names snap.%s, which a caller already reaches", name)
		case needed[name]:
			t.Errorf("allowlist names snap.%s, which a kept signature already needs", name)
		case strings.TrimSpace(why) == "":
			t.Errorf("allowlist entry snap.%s gives no reason", name)
		}
	}
}

// facadeRefs returns the names f selects from the snap package, under
// whatever local name f imports it.
func facadeRefs(f *ast.File) map[string]bool {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "snap" {
			local = "snap"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	refs := map[string]bool{}
	if local == "" {
		return refs
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				refs[sel.Sel.Name] = true
			}
		}
		return true
	})
	return refs
}
