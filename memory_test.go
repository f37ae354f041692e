package snap

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestOneShotKernelsReleaseScratch pins the workspace rule (DESIGN.md
// §5b): a whole-graph kernel that runs once per session keeps no
// scratch alive after it returns. For each kernel it measures what the
// call allocated (MemStats.TotalAlloc) and what is still live after one
// runtime.GC(), net of the returned result. A package sync.Pool keeps
// whatever was Put since the last GC alive for one more cycle, so a
// pooled workspace shows up here as nearly everything the call
// allocated.
func TestOneShotKernelsReleaseScratch(t *testing.T) {
	g := RMAT(1<<14, 8<<14, DefaultRMAT(), 1)
	kernels := []struct {
		name string
		// run calls the kernel and returns the bytes its result holds.
		run func() (result uint64, keep any)
	}{
		{"Partition{K:32}", func() (uint64, any) {
			r, err := Partition(g, PartitionOptions{K: 32})
			if err != nil {
				t.Fatal(err)
			}
			return sliceBytes(r.Part), r
		}},
		{"ApproxNeighborhood{MaxSweeps:16}", func() (uint64, any) {
			r := ApproxNeighborhood(g, ANFOptions{MaxSweeps: 16})
			return sliceBytes(r.NF) + sliceBytes(r.Reach), r
		}},
		{"Louvain", func() (uint64, any) {
			c := Louvain(g, LouvainOptions{})
			return sliceBytes(c.Assign), c
		}},
	}
	for _, k := range kernels {
		var before, mid, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		result, keep := k.run()
		runtime.ReadMemStats(&mid)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)

		allocated := mid.TotalAlloc - before.TotalAlloc
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc) - int64(result)
		t.Logf("%-34s allocated %8.1f kB, retained %8.1f kB (result %.1f kB)",
			k.name, float64(allocated)/1e3, float64(retained)/1e3, float64(result)/1e3)
		if retained > int64(allocated/4) {
			t.Errorf("%s: %d of the %d bytes it allocated are still live after a GC, want at most a quarter",
				k.name, retained, allocated)
		}
	}
}

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) uint64 {
	var zero T
	return uint64(cap(s)) * uint64(unsafe.Sizeof(zero))
}
