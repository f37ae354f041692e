package sketch

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

// Golden HyperANF outputs, recorded at commit e85d33a (the last one with
// the branchy union and the dense-only sweep). The kernel promises the
// same register plane, estimates and NF curve bit for bit for a given
// (graph, options) at every worker count, so a change to the sweep that
// moves one of these hashes changed the output, not just the speed.

type anfGoldenCase struct {
	name string
	g    func() *graph.Graph
	opt  ANFOptions
	hash uint64 // FNV-1a over registers ‖ est ‖ NF, little-endian
	long bool   // skipped under -short
}

func goldenRMAT(scale int) func() *graph.Graph {
	return func() *graph.Graph {
		n := 1 << scale
		return generate.RMAT(n, 8*n, generate.DefaultRMAT(), 1)
	}
}

func goldenRoad(side int) func() *graph.Graph {
	return func() *graph.Graph { return generate.RoadMesh(side, side, 0.05, 1) }
}

// The long cases are the benchmark's analyze-rmat and analyze-road
// graphs and call (seed-1 graphs, MaxSweeps 16, default registers).
var anfGoldenCases = []anfGoldenCase{
	{name: "rmat14", g: goldenRMAT(14), opt: ANFOptions{}, hash: 0xacbd6392c59bb5a9},
	{name: "rmat14-16", g: goldenRMAT(14), opt: ANFOptions{MaxSweeps: 16}, hash: 0xacbd6392c59bb5a9},
	{name: "road128", g: goldenRoad(128), opt: ANFOptions{}, hash: 0x4aa8f10a93ee368b},
	{name: "road128-16", g: goldenRoad(128), opt: ANFOptions{MaxSweeps: 16}, hash: 0xaabcaf8d8205f434},
	{name: "rmat14-r16", g: goldenRMAT(14), opt: ANFOptions{Registers: 16, Seed: 5}, hash: 0xca1580336e414709},
	{name: "road128-r256", g: goldenRoad(128), opt: ANFOptions{Registers: 256, MaxSweeps: 16}, hash: 0x3a5c4fa30063d03},
	{name: "rmat17-16", g: goldenRMAT(17), opt: ANFOptions{MaxSweeps: 16}, hash: 0xa703a94744ec1966, long: true},
	{name: "road362-16", g: goldenRoad(362), opt: ANFOptions{MaxSweeps: 16}, hash: 0xc52772d383394e3, long: true},
}

// anfHash folds the workspace's final register plane, its estimate
// plane and the NF curve of r into one FNV-1a hash.
func anfHash(ws *ANFWorkspace, r ANFResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, w := range ws.cur {
		put(w)
	}
	for _, e := range ws.est {
		put(math.Float64bits(e))
	}
	for _, x := range r.NF {
		put(math.Float64bits(x))
	}
	return h.Sum64()
}

// One workspace serves every case at every worker count in turn, so the
// test also proves that nothing a run leaves behind — a plane, a stamp,
// a changed list sized for another graph — reaches the next one.
func TestANFGoldenOutputs(t *testing.T) {
	ws := new(ANFWorkspace)
	for _, tc := range anfGoldenCases {
		if tc.long && testing.Short() {
			continue
		}
		g := tc.g()
		for _, workers := range []int{1, 2, 4} {
			opt := tc.opt
			opt.Workers = workers
			r := ws.Run(g, opt)
			if h := anfHash(ws, r); h != tc.hash {
				t.Errorf("%s workers=%d: hash %#x, want %#x", tc.name, workers, h, tc.hash)
			}
		}
	}
}
