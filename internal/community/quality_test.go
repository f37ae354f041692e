package community

import (
	"math"
	"runtime"
	"testing"

	"snap/internal/generate"
)

func TestNMI(t *testing.T) {
	a := []int32{0, 0, 0, 1, 1, 1}
	if v := NMI(a, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(self) = %g", v)
	}
	// Relabeled partition is still identical.
	b := []int32{1, 1, 1, 0, 0, 0}
	if v := NMI(a, b); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(relabel) = %g", v)
	}
	// Partition vs all-singletons shares no information beyond chance
	// structure; must be strictly below 1.
	c := []int32{0, 1, 2, 3, 4, 5}
	if v := NMI(a, c); v >= 1 {
		t.Fatalf("NMI(singletons) = %g", v)
	}
	// Trivial vs trivial.
	d := []int32{0, 0, 0, 0, 0, 0}
	if v := NMI(d, d); v != 1 {
		t.Fatalf("NMI(trivial) = %g", v)
	}
	// Negative labels are labels like any other: the same partition
	// under an order-preserving shift scores the same bits.
	neg := []int32{-2, -2, -2, 5, 5, 5}
	shifted := []int32{0, 0, 0, 7, 7, 7}
	if v, w := NMI(neg, c), NMI(shifted, c); v != w {
		t.Fatalf("NMI(negative labels) = %g, shifted %g", v, w)
	}
	if v := NMI(neg, a); math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(negative relabel) = %g", v)
	}
	// Two all-singleton labelings of 2 000 vertices: a dense ka × kb
	// table would take 32 MB; counting the pairs that occur takes O(n).
	const n = 2000
	s1, s2 := make([]int32, n), make([]int32, n)
	for i := range s1 {
		s1[i] = int32(i)
		s2[i] = int32(n - 1 - i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := NMI(s1, s2)
	runtime.ReadMemStats(&after)
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(singletons, reversed singletons) = %g", v)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("NMI on %d singletons allocated %d bytes, want <= 1 MB", n, got)
	}
}

func TestNMIRecoversPlanted(t *testing.T) {
	g, truth := generate.PlantedPartition(4, 25, 0.5, 0.01, 3)
	pla := PLA(g, PLAOptions{Seed: 2})
	if v := NMI(truth, pla.Assign); v < 0.9 {
		t.Fatalf("NMI(truth, pLA) = %g, want >= 0.9", v)
	}
}
