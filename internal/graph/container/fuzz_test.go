package container

import (
	"bytes"
	"encoding/binary"
	"testing"

	"snap/internal/graph"
)

// FuzzReadContainer throws arbitrary bytes at Decode. The invariant is
// purely defensive: Decode either errors or returns a graph that
// passes the full Validate — it must never panic, read out of the
// input's bounds, or allocate in proportion to a lying header. The
// corpus seeds valid plain and compressed containers plus targeted
// corruptions: truncations at every section boundary, inflated n/arcs,
// misaligned and out-of-bounds section entries, duplicate sections,
// and mangled varint rows.
func FuzzReadContainer(f *testing.F) {
	g := graph.MustBuild(64, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3},
		{U: 0, V: 63, W: 4}, {U: 30, V: 40, W: 5}, {U: 40, V: 50, W: 6},
	}, graph.BuildOptions{Weighted: true})
	dg := graph.MustBuild(8, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 5, V: 3}},
		graph.BuildOptions{Directed: true})

	var seeds [][]byte
	for _, gr := range []*graph.Graph{g, dg} {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := Encode(&buf, gr, Options{Compress: compress}); err != nil {
				f.Fatal(err)
			}
			valid := buf.Bytes()
			seeds = append(seeds, valid)
			// Truncations: mid-header, each page boundary, ragged tails.
			for _, cut := range []int{0, 3, 17, 47, pageSize - 1, pageSize, pageSize + 5} {
				if cut < len(valid) {
					seeds = append(seeds, valid[:cut])
				}
			}
			for off := pageSize; off < len(valid); off += pageSize {
				seeds = append(seeds, valid[:off])
			}
			// Header corruptions.
			mut := func(f func(b []byte)) {
				b := bytes.Clone(valid)
				f(b)
				seeds = append(seeds, b)
			}
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) })         // giant n
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 1<<40) })         // giant arcs
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<40) })         // giant m
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 0xff) })           // unknown flags
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[40:], 99) })            // section count
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[headerFixed+8:], 17) }) // misaligned off
			mut(func(b []byte) { binary.LittleEndian.PutUint64(b[headerFixed+16:], ^uint64(0)) })
			mut(func(b []byte) { copy(b[headerFixed+24:], b[headerFixed:headerFixed+24]) }) // duplicate id
			mut(func(b []byte) { b[pageSize] ^= 0x40 })                                     // first offsets byte
			if len(valid) > 2*pageSize {
				mut(func(b []byte) { b[2*pageSize+1] ^= 0x81 }) // adjacency/varint bytes
			}
			mut(func(b []byte) { b[len(b)-1] ^= 0xff })
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opt := range []LoadOptions{{Validate: true}, {ForceCopy: true, Validate: true}} {
			got, err := Decode(data, opt)
			if err != nil {
				continue
			}
			if verr := graph.Validate(got); verr != nil {
				// Validate passed inside Decode; a mismatch here means
				// Decode returned slices that changed under it.
				t.Fatalf("Decode accepted, re-Validate failed: %v", verr)
			}
		}
	})
}
