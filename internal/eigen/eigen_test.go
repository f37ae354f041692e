package eigen

import (
	"math"
	"math/rand"
	"testing"
)

// residual returns ‖A x − lam x‖ / ‖x‖.
func residual(mul func(x, y []float64), lam float64, x []float64) float64 {
	y := make([]float64, len(x))
	mul(x, y)
	for i := range y {
		y[i] -= lam * x[i]
	}
	return Norm(y) / Norm(x)
}

// The path P_n's Laplacian has eigenvalues 2 − 2cos(πk/n); with the
// constant vector (k = 0) deflated, the smallest is 2 − 2cos(π/n).
func TestLanczosPathFiedler(t *testing.T) {
	const n = 50
	lap := func(x, y []float64) {
		for i := range x {
			var s, d float64
			if i > 0 {
				s += x[i-1]
				d++
			}
			if i < n-1 {
				s += x[i+1]
				d++
			}
			y[i] = d*x[i] - s
		}
	}
	deflateOnes := func(x []float64) {
		var mean float64
		for _, v := range x {
			mean += v
		}
		mean /= float64(len(x))
		for i := range x {
			x[i] -= mean
		}
	}
	lam, x, ok := Lanczos(n, n-1, lap, deflateOnes, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("Lanczos failed")
	}
	if want := 2 - 2*math.Cos(math.Pi/n); math.Abs(lam-want) > 1e-9 {
		t.Fatalf("lambda = %.15g, want %.15g", lam, want)
	}
	if r := residual(lap, lam, x); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum) > 1e-8*Norm(x) {
		t.Fatalf("Fiedler vector not orthogonal to ones: sum %g", sum)
	}
	// The Fiedler vector of a path is monotone: one sign change.
	changes := 0
	for i := 1; i < n; i++ {
		if (x[i] < 0) != (x[i-1] < 0) {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("Fiedler vector changes sign %d times, want 1", changes)
	}
}

// Two disjoint triangles: B = A − kkᵀ/2m = A − J/3 has eigenvalues 2
// (the vector splitting the triangles), 0 (ones) and −1 (four times),
// so the smallest eigenpair of −B is −2 with the triangle split, found
// without deflation.
func TestLanczosNegativeModularity(t *testing.T) {
	const n = 6
	negB := func(x, y []float64) {
		var sum float64
		for _, v := range x {
			sum += v
		}
		for i := range x {
			var ax float64
			base := i / 3 * 3
			for j := base; j < base+3; j++ {
				if j != i {
					ax += x[j]
				}
			}
			y[i] = sum/3 - ax
		}
	}
	lam, x, ok := Lanczos(n, n, negB, nil, rand.New(rand.NewSource(2)))
	if !ok {
		t.Fatal("Lanczos failed")
	}
	if math.Abs(lam+2) > 1e-9 {
		t.Fatalf("lambda = %.15g, want -2", lam)
	}
	if r := residual(negB, lam, x); r > 1e-8 {
		t.Fatalf("residual %g", r)
	}
	for i := 1; i < n; i++ {
		if sameSide, sameTriangle := (x[i] < 0) == (x[0] < 0), i < 3; sameSide != sameTriangle {
			t.Fatalf("vertex %d on the wrong side: %v", i, x)
		}
	}
}
