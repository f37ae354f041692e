// Package snap is SNAP-Go: a parallel framework for small-world
// network analysis and partitioning, reproducing Bader & Madduri,
// "SNAP, Small-world Network Analysis and Partitioning" (IPDPS 2008).
//
// The package is a facade over the internal kernel packages and is the
// supported public API:
//
//   - Graph construction: Build, ReadEdgeList, generators
//     (RMAT, ErdosRenyi, RoadMesh, WattsStrogatz, ...).
//   - Graph kernels: BFS, ConnectedComponents, Biconnected, MST,
//     DeltaStepping.
//   - Centrality: Degree, Closeness, Betweenness (exact and
//     adaptive-sampling approximate, vertex and edge).
//   - Network metrics: clustering coefficients, assortativity,
//     rich-club, average path length.
//   - Approximate analytics: ApproxNeighborhood (HyperANF: NF curve,
//     effective diameter, average path length), SampledCloseness,
//     NewDistanceOracle.
//   - Community detection: GirvanNewman, PBD, PMA, PLA, Modularity.
//   - Partitioning: Partition (parallel multilevel k-way),
//     MultilevelRecursive, SpectralRQI, SpectralLanczos, EdgeCut —
//     and the blocked layout it enables: BlockedPerm, Relabel.
//
// Each kernel has one entry point. Per-call tuning — worker count,
// cancellation, stats — goes in that kernel's options struct. An entry
// stays only while a binary, example, serve op or workload reaches it,
// a kept entry's signature needs it, or it is a paper capability
// (TestFacadeEarnsEntries checks this).
//
// Parallelism: every kernel obeys GOMAXPROCS (or an explicit Workers
// option). See DESIGN.md for the architecture and EXPERIMENTS.md for
// the paper-reproduction results.
package snap

import (
	"io"

	"snap/internal/bfs"
	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/graph/container"
	"snap/internal/ingest"
	"snap/internal/metrics"
	"snap/internal/partition"
	"snap/internal/sketch"
	"snap/internal/sssp"
)

// Graph is the immutable CSR graph at the heart of SNAP.
type Graph = graph.Graph

// ErrGraphClosed is returned by operations on a graph whose backing
// storage has been released with Close (for example an unmapped SNP2
// container). Long-lived services should check Graph.Closed — or just
// propagate this error — rather than risk a fault on unmapped pages.
var ErrGraphClosed = graph.ErrClosed

// Edge is an input edge for graph construction.
type Edge = graph.Edge

// BuildOptions controls CSR construction. Duplicate edges collapse to
// the first one, weight included; AllowMulti keeps parallel edges
// distinct.
type BuildOptions = graph.BuildOptions

// Build constructs a CSR graph from an edge list. Large inputs are
// assembled by a parallel counting-sort pipeline (validate, histogram,
// scatter, per-vertex sort/dedup); the result is bit-identical for any
// worker count, and identical to the serial builder used below the
// size threshold.
func Build(n int, edges []Edge, opt BuildOptions) (*Graph, error) {
	return graph.Build(n, edges, opt)
}

// Undirected returns g or its symmetrized copy when g is directed.
// Symmetrization merges each vertex's out- and in-adjacency runs
// straight from the CSR (no intermediate edge list), keeping the
// lowest edge id when antiparallel arcs collapse.
func Undirected(g *Graph) *Graph { return graph.Undirected(g) }

// ReadEdgeList parses the text edge-list interchange format. Large
// inputs are split at newline boundaries and parsed by parallel
// shards; errors report the same line numbers as a serial scan.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// WriteEdgeList writes the text edge-list interchange format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ContainerOptions controls SNP2 container writes; Compress selects the
// varint delta-encoded adjacency section (about half the raw
// adjacency bytes, paid for by a parallel decode at load).
type ContainerOptions = container.Options

// MapLoadOptions controls SNP2 loads. ForceCopy materializes the graph
// on the heap instead of aliasing the mapping; Validate runs the full
// structural check after the O(n) header/offset validation that every
// load performs.
type MapLoadOptions = container.LoadOptions

// WriteContainer writes g as an SNP2 binary CSR container, the
// page-aligned format MapBinary loads without copying.
func WriteContainer(path string, g *Graph, opt ContainerOptions) error {
	return container.Save(path, g, opt)
}

// MapBinary memory-maps an SNP2 container: the returned graph's CSR
// slices alias the read-only mapping, so loads are O(1) in allocations
// and pages fault in on first touch. Call Close when done; a finalizer
// backstops leaked graphs. Compressed containers decode their
// adjacency onto the heap at load; the other sections still alias the
// mapping.
func MapBinary(path string) (*Graph, error) {
	return container.Load(path, container.LoadOptions{})
}

// EncodeContainer writes the SNP2 byte stream to w (Save without the
// file); DecodeContainer is its inverse over an in-memory image.
func EncodeContainer(w io.Writer, g *Graph, opt ContainerOptions) error {
	return container.Encode(w, g, opt)
}

// DecodeContainer parses an SNP2 image already in memory. The returned
// graph aliases data unless opt.ForceCopy is set; data must stay live
// and unmodified for the graph's lifetime.
func DecodeContainer(data []byte, opt MapLoadOptions) (*Graph, error) {
	return container.Decode(data, opt)
}

// Generators.

// RMATParams are the R-MAT quadrant probabilities.
type RMATParams = generate.RMATParams

// DefaultRMAT returns the standard skewed R-MAT parameters.
func DefaultRMAT() RMATParams { return generate.DefaultRMAT() }

// RMAT generates an undirected R-MAT small-world graph.
func RMAT(n, m int, p RMATParams, seed int64) *Graph { return generate.RMAT(n, m, p, seed) }

// ErdosRenyi generates a sparse uniform random graph with m edges.
func ErdosRenyi(n, m int, seed int64) *Graph { return generate.ErdosRenyi(n, m, seed) }

// RoadMesh generates a road-network-like 2-D mesh.
func RoadMesh(rows, cols int, extra float64, seed int64) *Graph {
	return generate.RoadMesh(rows, cols, extra, seed)
}

// WattsStrogatz generates the classic rewired-ring small-world graph.
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	return generate.WattsStrogatz(n, k, beta, seed)
}

// PlantedPartition generates the planted community benchmark, returning
// the graph and ground-truth assignment.
func PlantedPartition(k, csize int, pin, pout float64, seed int64) (*Graph, []int32) {
	return generate.PlantedPartition(k, csize, pin, pout, seed)
}

// PreferentialAttachment generates a Barabási–Albert power-law graph.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	return generate.PreferentialAttachment(n, k, seed)
}

// Kernels.

// BFSResult is a breadth-first tree (hop distances and parents).
type BFSResult = bfs.Result

// BFS runs the direction-optimizing level-synchronous BFS from src:
// top-down levels run the serial queue loop, and bottom-up sweeps are
// split across all workers. Distances equal the textbook queue loop's.
// Parents depend on each level's direction but never on the worker
// count: a top-down level keeps the queue loop's parent, and a
// bottom-up level gives each vertex its first frontier neighbor in
// adjacency order.
func BFS(g *Graph, src int32) BFSResult {
	return bfs.DirectionOptimizing(g, src)
}

// BFSWorkspace is the epoch-stamped traversal state BFSMultiSource
// hands each worker: resetting between sources is O(1), so the loop
// runs allocation-free. It is valid only inside the visit callback.
type BFSWorkspace = bfs.Workspace

// BFSMultiSource runs one BFS per source with per-worker reusable
// workspaces; visit is called concurrently (stable worker ids, each
// source index exactly once). maxDepth < 0 means unlimited.
func BFSMultiSource(g *Graph, sources []int32, maxDepth int32, visit func(worker, i int, ws *BFSWorkspace)) {
	bfs.MultiSourceWorkspace(g, sources, maxDepth, 0, visit)
}

// Components is a partition of the vertices into connected components.
type Components = components.Labeling

// ConnectedComponents computes connected components, numbered in
// smallest-member order: a direction-optimizing BFS sweep from each
// unlabeled vertex in ascending order (on a directed graph, weak
// components by union-find). No parent is kept, so the sweep's
// direction choices never show in the answer.
func ConnectedComponents(g *Graph) Components {
	return components.Connected(g, nil)
}

// BiconnectedResult holds articulation points, bridges, and the
// edge partition into biconnected components.
type BiconnectedResult = components.BiCC

// Biconnected decomposes g into biconnected components.
func Biconnected(g *Graph) BiconnectedResult { return components.Biconnected(g) }

// MSTResult is a minimum spanning forest.
type MSTResult = components.MST

// MST computes a minimum spanning forest with parallel Borůvka rounds.
func MST(g *Graph) MSTResult { return components.BoruvkaMST(g, 0) }

// SSSPResult holds single-source shortest-path distances and parents.
type SSSPResult = sssp.Result

// DeltaSteppingOptions tunes the bucket width (Delta) of the
// delta-stepping engine and the parallelism (Workers) of its unweighted
// path, and carries a Cancel hook polled at every bucket phase and an
// optional Stats record; the zero value selects the maxWeight/avgDegree
// heuristic and the full worker pool. Weighted runs relax on one
// goroutine whatever Workers says.
type DeltaSteppingOptions = sssp.DeltaSteppingOptions

// SSSPStats is the delta-stepping engine's record of one run (buckets,
// phases, drained and dropped entries, vertex visits, arcs relaxed,
// far-list redistributions): point DeltaSteppingOptions.Stats at one
// and read it after the run returns. Fixed-size and caller-owned; nil
// is off.
type SSSPStats = sssp.Stats

// DeltaStepping computes SSSP with the delta-stepping engine, which
// relaxes on the calling goroutine; callers parallelise across
// sources. Dist is bit-identical to Dijkstra for any delta; unweighted
// graphs degenerate to the direction-optimizing BFS engine, whose
// bottom-up sweeps use Workers. A run that Cancel stopped returns
// partial distances, which callers must discard.
func DeltaStepping(g *Graph, src int32, opt DeltaSteppingOptions) SSSPResult {
	return sssp.DeltaStepping(g, src, opt)
}

// SSSPWorkspace is the reusable state of the delta-stepping engine:
// repeated sources on one graph allocate nothing once warm. Not safe
// for concurrent use; acquire one per goroutine.
type SSSPWorkspace = sssp.Workspace

// AcquireSSSPWorkspace returns a pooled delta-stepping workspace.
// Release it with ReleaseSSSPWorkspace when done.
func AcquireSSSPWorkspace() *SSSPWorkspace { return sssp.AcquireWorkspace() }

// ReleaseSSSPWorkspace returns a workspace to the shared pool.
func ReleaseSSSPWorkspace(ws *SSSPWorkspace) { sssp.ReleaseWorkspace(ws) }

// Centrality.

// CentralityScores holds vertex and/or edge betweenness scores.
type CentralityScores = centrality.Scores

// BetweennessOptions configures betweenness computation.
type BetweennessOptions = centrality.BetweennessOptions

// Betweenness computes exact betweenness centrality (Brandes).
func Betweenness(g *Graph, opt BetweennessOptions) CentralityScores {
	return centrality.Betweenness(g, opt)
}

// ApproxOptions configures adaptive-sampling approximate betweenness.
type ApproxOptions = centrality.ApproxOptions

// ApproxBetweenness estimates betweenness by adaptive sampling.
func ApproxBetweenness(g *Graph, opt ApproxOptions) CentralityScores {
	return centrality.ApproxBetweenness(g, opt)
}

// DegreeCentrality returns per-vertex degree scores.
func DegreeCentrality(g *Graph) []float64 { return centrality.DegreeCentrality(g) }

// Closeness computes closeness centrality for every vertex.
func Closeness(g *Graph) []float64 {
	return centrality.Closeness(g, centrality.ClosenessOptions{})
}

// TopKVertices returns the indices of the k largest scores, descending.
func TopKVertices(scores []float64, k int) []int32 { return centrality.TopKVertices(scores, k) }

// Metrics.

// DegreeStats summarizes a degree distribution.
type DegreeStats = metrics.DegreeStats

// Degrees computes degree statistics.
func Degrees(g *Graph) DegreeStats { return metrics.Degrees(g) }

// ClusteringCoefficient returns the mean local clustering coefficient.
func ClusteringCoefficient(g *Graph) float64 { return metrics.GlobalClustering(g, 0) }

// LocalClustering returns per-vertex local clustering coefficients.
func LocalClustering(g *Graph) []float64 { return metrics.LocalClustering(g, 0) }

// Assortativity returns Newman's degree assortativity coefficient.
func Assortativity(g *Graph) float64 { return metrics.Assortativity(g) }

// RichClub returns the rich-club coefficient per degree threshold.
func RichClub(g *Graph) []float64 { return metrics.RichClub(g) }

// AvgNeighborDegree returns the average neighbor connectivity knn(k).
func AvgNeighborDegree(g *Graph) []float64 { return metrics.AvgNeighborDegree(g) }

// AvgPathLength estimates the mean shortest-path length (sampled BFS)
// and a diameter lower bound.
func AvgPathLength(g *Graph) (float64, int) {
	return metrics.AvgPathLength(g, metrics.PathLengthOptions{})
}

// Approximate (sketch-tier) analytics.

// ANFOptions configures the HyperANF neighborhood-function kernel.
type ANFOptions = sketch.ANFOptions

// ANFResult is the estimated neighborhood function and derived
// distance statistics.
type ANFResult = sketch.ANFResult

// ANFStats is HyperANF's per-sweep record of one run (dense or sparse,
// rows visited, unions, register words grown, rows changed): point
// ANFOptions.Stats at one and read it after ApproxNeighborhood returns.
// Fixed-size and caller-owned; nil is off.
type ANFStats = sketch.ANFStats

// ApproxNeighborhood estimates the neighborhood function NF(t) of g by
// HyperANF: per-vertex HyperLogLog sketches advanced by level-
// synchronous union sweeps. One pass yields the effective diameter,
// the average path length over ALL reachable pairs, and per-vertex
// reachable-set sizes — orders of magnitude faster than exact BFS
// tiers on large small-world graphs, at a few percent error.
func ApproxNeighborhood(g *Graph, opt ANFOptions) ANFResult {
	return sketch.ANF(g, opt)
}

// SampledClosenessOptions configures the Eppstein–Wang sampled
// closeness estimator (its pivot count, by default the one that holds
// every estimate within 0.1·diameter at confidence 0.95).
type SampledClosenessOptions = sketch.ClosenessOptions

// SampledClosenessResult carries the estimated scores and the realized
// Hoeffding error contract.
type SampledClosenessResult = sketch.ClosenessResult

// SampledCloseness estimates closeness centrality from sampled BFS
// pivots with a Hoeffding error bound: every vertex's estimated
// average distance is within Epsilon·diameter of the truth with
// probability Confidence.
func SampledCloseness(g *Graph, opt SampledClosenessOptions) SampledClosenessResult {
	return sketch.Closeness(g, opt)
}

// DistanceOracleOptions configures the landmark count (landmarks are
// the highest-degree vertices) and the build's worker count.
type DistanceOracleOptions = sketch.OracleOptions

// DistanceOracle answers point-to-point distance queries in O(k) from
// k landmark BFS vectors via triangle-inequality brackets. Immutable
// and safe for concurrent queries.
type DistanceOracle = sketch.Oracle

// NewDistanceOracle builds a k-landmark distance oracle over an
// undirected graph (one BFS sweep per landmark).
func NewDistanceOracle(g *Graph, opt DistanceOracleOptions) (*DistanceOracle, error) {
	return sketch.BuildOracle(g, opt)
}

// Community detection.

// Clustering is a partition of the vertices into communities.
type Clustering = community.Clustering

// Dendrogram records the trajectory of a divisive or agglomerative run.
type Dendrogram = community.Dendrogram

// Modularity computes Newman–Girvan modularity of assign on g.
func Modularity(g *Graph, assign []int32) float64 {
	return community.Modularity(g, assign, 0)
}

// GNOptions configures the Girvan–Newman baseline.
type GNOptions = community.GNOptions

// GirvanNewman runs the exact edge-betweenness divisive baseline:
// PBD's removal loop with every vertex a source and a refresh after
// every removal.
func GirvanNewman(g *Graph, opt GNOptions) (Clustering, *Dendrogram) {
	return community.GirvanNewman(g, opt)
}

// PBDOptions configures the approximate-betweenness divisive algorithm.
type PBDOptions = community.PBDOptions

// PBD runs the parallel approximate-betweenness divisive algorithm.
func PBD(g *Graph, opt PBDOptions) (Clustering, *Dendrogram) {
	return community.PBD(g, opt)
}

// PMAOptions configures the agglomerative algorithm.
type PMAOptions = community.PMAOptions

// PMA runs the parallel modularity-maximizing agglomerative algorithm.
func PMA(g *Graph, opt PMAOptions) (Clustering, *Dendrogram) {
	return community.PMA(g, opt)
}

// PLAOptions configures the greedy local aggregation algorithm.
type PLAOptions = community.PLAOptions

// PLA runs the parallel greedy local aggregation algorithm.
func PLA(g *Graph, opt PLAOptions) Clustering {
	return community.PLA(g, opt)
}

// RefineClustering improves a clustering with greedy vertex moves.
func RefineClustering(g *Graph, c Clustering, passes int, seed int64) Clustering {
	return community.Refine(g, c, passes, seed)
}

// Partitioning.

// PartitionResult is a k-way partition with cut and balance metrics.
type PartitionResult = partition.Result

// MultilevelOptions configures the Metis-style partitioners.
type MultilevelOptions = partition.MultilevelOptions

// PartitionStats is the k-way engine's per-level record of one run
// (hierarchy sizes, shrink ratios, refinement passes, evaluations and
// moves): point PartitionOptions.Stats at one and read it after
// Partition returns. Fixed-size and caller-owned; nil is off.
type PartitionStats = partition.Stats

// SpectralOptions configures the Chaco-style spectral partitioners.
type SpectralOptions = partition.SpectralOptions

// MultilevelRecursive partitions g into k parts (recursive bisection).
func MultilevelRecursive(g *Graph, k int, opt MultilevelOptions) (PartitionResult, error) {
	return partition.MultilevelRecursive(g, k, opt)
}

// SpectralRQI partitions g spectrally (multilevel power/RQI Fiedler).
func SpectralRQI(g *Graph, k int, opt SpectralOptions) (PartitionResult, error) {
	return partition.SpectralRQI(g, k, opt)
}

// SpectralLanczos partitions g spectrally (Lanczos Fiedler).
func SpectralLanczos(g *Graph, k int, opt SpectralOptions) (PartitionResult, error) {
	return partition.SpectralLanczos(g, k, opt)
}

// EdgeCut counts edges crossing parts.
func EdgeCut(g *Graph, part []int32) int64 { return partition.EdgeCut(g, part) }

// PartitionOptions configures Partition, the high-level entry to the
// parallel multilevel k-way engine.
type PartitionOptions struct {
	// K is the number of parts (required, >= 1; K == 1 trivially
	// assigns everything to part 0).
	K int
	// Workers caps parallelism; <= 0 means par.Workers(). The
	// partition is bit-identical at every worker count.
	Workers int
	// Seed drives matching and seeding randomness; 0 means the pinned
	// repo default.
	Seed int64
	// Stats, when non-nil, receives the engine's per-level record of
	// the run.
	Stats *PartitionStats
}

// Partition computes a k-way partition with the parallel multilevel
// engine (heavy-edge matching, dedupe-and-transpose contraction,
// batch-synchronous boundary refinement). The result is deterministic
// for a given seed regardless of worker count.
func Partition(g *Graph, opt PartitionOptions) (PartitionResult, error) {
	return partition.MultilevelKWay(g, opt.K, MultilevelOptions{
		Seed:    opt.Seed,
		Workers: opt.Workers,
		Stats:   opt.Stats,
	})
}

// BlockedPerm computes the partition-blocked relabeling permutation
// for a partition: perm[newID] = oldID orders vertices by (part,
// descending degree), and bounds (length k+1) marks each part's
// contiguous new-id block. Feed perm to Relabel.
func BlockedPerm(g *Graph, part []int32, k int) (perm, bounds []int32, err error) {
	return partition.BlockedPerm(g, part, k)
}

// Relabel permutes a graph's vertex ids: perm[newID] = oldID. Returns
// the relabeled graph and the inverse map inv (inv[oldID] = newID).
// Edge ids and weights follow their arcs.
func Relabel(g *Graph, perm []int32) (*Graph, []int32, error) {
	return graph.Relabel(g, perm)
}

// Extensions beyond the paper's sections 3-5, implementing its stated
// ongoing work (Section 6).

// CommunitySpectralOptions configures the spectral modularity maximizer.
type CommunitySpectralOptions = community.SpectralOptions

// SpectralCommunities detects communities with Newman's
// leading-eigenvector method over the modularity matrix — the paper's
// "spectral algorithms that optimize modularity" future-work item.
func SpectralCommunities(g *Graph, opt CommunitySpectralOptions) Clustering {
	return community.SpectralCommunities(g, opt)
}

// PageRankOptions configures the PageRank power iteration.
type PageRankOptions = centrality.PageRankOptions

// PageRank computes the random-surfer stationary distribution
// (influential-entity identification); on directed graphs mass flows
// along arc direction.
func PageRank(g *Graph, opt PageRankOptions) []float64 {
	return centrality.PageRank(g, opt)
}

// EigenvectorCentrality computes principal-eigenvector centrality.
func EigenvectorCentrality(g *Graph) []float64 {
	return centrality.EigenvectorCentrality(g, 0, 0)
}

// STConnectivity answers an s-t connectivity query with bidirectional
// search, returning reachability and hop distance (along out-arcs on a
// directed graph).
func STConnectivity(g *Graph, s, t int32) (bool, int32) {
	return bfs.STConnectivity(g, s, t)
}

// KCore returns every vertex's core number (Batagelj–Zaveršnik peeling).
func KCore(g *Graph) []int32 { return metrics.KCore(g) }

// Degeneracy returns the maximum core number.
func Degeneracy(g *Graph) int { return metrics.Degeneracy(g) }

// NMI scores two clusterings' agreement (1 = identical partitions).
func NMI(a, b []int32) float64 { return community.NMI(a, b) }

// LouvainOptions configures the multilevel local-moving heuristic.
type LouvainOptions = community.LouvainOptions

// Louvain runs the multilevel local-moving modularity heuristic
// (Blondel et al. 2008), included as the modern comparison baseline.
// For a fixed Seed the partition is identical at every worker count.
// Undirected graphs only: on a directed graph the partition and its Q
// mean nothing.
func Louvain(g *Graph, opt LouvainOptions) Clustering {
	return community.Louvain(g, opt)
}

// WriteMETIS / ReadMETIS interoperate with the METIS/Chaco graph format.
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }
func ReadMETIS(r io.Reader) (*Graph, error)  { return graph.ReadMETIS(r) }

// WriteDIMACS / ReadDIMACS interoperate with the DIMACS edge format.
func WriteDIMACS(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }
func ReadDIMACS(r io.Reader) (*Graph, error)  { return graph.ReadDIMACS(r) }

// WriteDOT exports GraphViz DOT, optionally colored by communities.
func WriteDOT(w io.Writer, g *Graph, assign []int32) error {
	return graph.WriteDOT(w, g, assign)
}

// InducedSubgraph extracts the subgraph on the given vertices, with
// the mapping from new ids back to the originals.
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, []int32, error) {
	return graph.InducedSubgraph(g, vertices)
}

// RCMOrder computes a reverse Cuthill-McKee cache-friendly ordering
// (perm[newID] = oldID); Relabel applies it.
func RCMOrder(g *Graph) []int32 { return graph.RCMOrder(g) }

// LabelPropagation runs the Raghavan–Albert–Kumara community heuristic.
func LabelPropagation(g *Graph, seed int64) Clustering {
	return community.LabelPropagation(g, 0, seed)
}

// Diameter computes the exact diameter of the largest component (iFUB).
func Diameter(g *Graph) int { return metrics.Diameter(g) }

// Snapshot-epoch streaming ingest (the paper's dynamic-network
// direction, rebuilt on immutable CSR epochs).

// Stream buffers edge insertions and deletions against the current
// snapshot and, on Commit, merges them into a fresh immutable Graph
// published as a new Epoch. Readers pin epochs lock-free, never block
// behind writers, and run any kernel on the pinned snapshot;
// PageRankFrom chains PageRank from one epoch to the next.
type Stream = ingest.Stream

// StreamOptions configures a Stream (its merge worker count).
type StreamOptions = ingest.Options

// Epoch is one pinned immutable snapshot of a Stream; Close releases
// it. The underlying Graph stays valid until every pin is closed.
type Epoch = ingest.Epoch

// CommitStats summarizes one committed delta.
type CommitStats = ingest.CommitStats

// NewStream starts a snapshot-epoch stream seeded with g. The stream
// takes ownership of g: it is closed when its epoch is superseded and
// unpinned, so pass a graph the caller no longer uses directly.
func NewStream(g *Graph, opt StreamOptions) *Stream { return ingest.New(g, opt) }

// NewEmptyStream starts a stream over n isolated vertices.
func NewEmptyStream(n int, directed, weighted bool, opt StreamOptions) (*Stream, error) {
	return ingest.NewEmpty(n, directed, weighted, opt)
}

// MergeDelta applies a batch of deletions and insertions to an
// immutable CSR snapshot, returning a fresh Graph bit-identical to
// rebuilding from the updated edge list; g is unmodified. The kernel
// behind Stream.Commit, usable standalone for one-shot updates.
func MergeDelta(g *Graph, add, del []Edge) (*Graph, error) {
	return graph.MergeDelta(g, add, del)
}

// PageRankFrom computes PageRank warm-started from a previous score
// vector (for example the previous epoch's), converging in the few
// sweeps the carried-over vector is away from the new fixpoint.
func PageRankFrom(g *Graph, prev []float64, opt PageRankOptions) []float64 {
	return centrality.PageRankFrom(g, prev, opt)
}
