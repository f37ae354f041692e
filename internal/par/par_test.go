package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, workers := range []int{1, 2, 3, 8} {
			hits := make([]int32, n)
			ForEachN(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForChunkedCoversRange(t *testing.T) {
	for _, n := range []int{1, 5, 64, 1000} {
		for _, workers := range []int{1, 2, 7} {
			var total int64
			ForChunkedN(n, workers, func(_, lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
			if total != int64(n) {
				t.Fatalf("n=%d workers=%d: covered %d", n, workers, total)
			}
		}
	}
}

func TestForChunkedRangesDisjoint(t *testing.T) {
	n := 500
	seen := make([]int32, n)
	ForChunkedN(n, 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestForGuidedCoversAllIndices(t *testing.T) {
	n := 777
	hits := make([]int32, n)
	ForGuidedN(n, 13, 5, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestSlicePartition(t *testing.T) {
	check := func(n, workers int) bool {
		if n < 0 || workers < 1 {
			return true
		}
		n %= 10000
		workers = workers%64 + 1
		prev := 0
		for w := 0; w < workers; w++ {
			lo, hi := Slice(n, workers, w)
			if lo != prev || hi < lo {
				return false
			}
			if hi-lo > n/workers+1 {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAwareBoundsMonotoneAndComplete(t *testing.T) {
	weight := []int64{100, 1, 1, 1, 1, 1, 1, 100}
	bounds := DegreeAware(weight, 4)
	if bounds[0] != 0 || bounds[4] != len(weight) {
		t.Fatalf("bounds endpoints wrong: %v", bounds)
	}
	for i := 0; i < 4; i++ {
		if bounds[i] > bounds[i+1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
}

func TestDegreeAwareBalancesSkewedWeights(t *testing.T) {
	// One huge vertex and many tiny ones: the huge one should not
	// share a range with most of the tiny ones.
	weight := make([]int64, 1000)
	weight[0] = 1e6
	for i := 1; i < 1000; i++ {
		weight[i] = 1
	}
	bounds := DegreeAware(weight, 4)
	if bounds[1] != 1 {
		t.Fatalf("heavy vertex should occupy its own range; bounds=%v", bounds[:5])
	}
}

func TestForDegreeAwareCoverage(t *testing.T) {
	weight := make([]int64, 300)
	for i := range weight {
		weight[i] = int64(i % 17)
	}
	seen := make([]int32, 300)
	ForDegreeAware(weight, 5, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestPrefixSum(t *testing.T) {
	out := PrefixSum([]int64{3, 0, 2, 5})
	want := []int64{0, 3, 3, 5, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("PrefixSum = %v, want %v", out, want)
		}
	}
}
