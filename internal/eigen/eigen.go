// Package eigen is the one symmetric eigen-solver: a Lanczos process
// with full reorthogonalisation over a caller-supplied matrix-vector
// product, returning the smallest Ritz pair. Spectral bisection asks it
// for the Fiedler vector of a Laplacian (deflating the constant
// vector); leading-eigenvector community detection asks it for the
// smallest eigenpair of −B, the negated modularity matrix.
package eigen

import (
	"math"
	"math/rand"
)

// Lanczos runs at most steps Lanczos steps on the symmetric operator
// y = A x given by mul, over vectors of length n, from a random start
// drawn from rng. Every new basis vector is reorthogonalised against
// all earlier ones. deflate, if non-nil, projects a vector onto the
// subspace searched (for example the complement of a known
// eigenvector); it is applied to the start vector and to every
// residual before reorthogonalisation.
//
// It returns the smallest eigenvalue of the Lanczos tridiagonal and
// its Ritz vector. The pair is not checked for convergence: callers
// that need a residual bound compute it. ok is false when the start
// vector vanishes after deflation or the tridiagonal solve fails.
func Lanczos(n, steps int, mul func(x, y []float64), deflate func(x []float64), rng *rand.Rand) (lam float64, vec []float64, ok bool) {
	q := make([][]float64, 0, steps+1)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps)

	q0 := RandomVector(n, rng)
	if deflate != nil {
		deflate(q0)
	}
	if !Normalize(q0) {
		return 0, nil, false
	}
	q = append(q, q0)
	y := make([]float64, n)
	for j := 0; j < steps; j++ {
		mul(q[j], y)
		a := Dot(q[j], y)
		alpha = append(alpha, a)
		for i := range y {
			y[i] -= a * q[j][i]
		}
		if j > 0 {
			b := beta[j-1]
			for i := range y {
				y[i] -= b * q[j-1][i]
			}
		}
		// Full reorthogonalisation keeps the Ritz values honest.
		if deflate != nil {
			deflate(y)
		}
		orthogonalize(y, q)
		b := Norm(y)
		if b < 1e-12 {
			break // invariant subspace found (happy breakdown)
		}
		beta = append(beta, b)
		qn := make([]float64, n)
		inv := 1 / b
		for i := range y {
			qn[i] = y[i] * inv
		}
		q = append(q, qn)
	}
	k := len(alpha)
	if k == 0 {
		return 0, nil, false
	}
	lam = smallestEigTri(alpha[:k], beta[:min(k-1, len(beta))])
	z, ok := eigvecTri(alpha[:k], beta[:min(k-1, len(beta))], lam)
	if !ok {
		return 0, nil, false
	}
	// Map back: vec = sum z_j q_j.
	vec = make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range vec {
			vec[i] += z[j] * q[j][i]
		}
	}
	return lam, vec, true
}

// orthogonalize subtracts from y its component along each basis
// vector in turn. It is kept out of line: inlined into Lanczos, the
// compiler spilled the inner-product loop's index to the stack on
// every iteration, which cost Chaco-LAN about a tenth of its time.
//
//go:noinline
func orthogonalize(y []float64, basis [][]float64) {
	for _, qi := range basis {
		d := Dot(qi, y)
		for i := range y {
			y[i] -= d * qi[i]
		}
	}
}

// RandomVector returns n values uniform in [-1, 1) drawn from rng.
func RandomVector(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// Dot returns the inner product of a and b, summed in index order.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean length of x.
func Norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Normalize scales x to unit length in place; it reports false, and
// leaves x alone, when x is numerically zero.
func Normalize(x []float64) bool {
	nm := Norm(x)
	if nm < 1e-300 {
		return false
	}
	inv := 1 / nm
	for i := range x {
		x[i] *= inv
	}
	return true
}

// smallestEigTri finds the smallest eigenvalue of the symmetric
// tridiagonal matrix (alpha, beta) by bisection with Sturm sequences.
func smallestEigTri(alpha, beta []float64) float64 {
	// Gershgorin bounds.
	lo, hi := alpha[0], alpha[0]
	for i := range alpha {
		r := 0.0
		if i > 0 {
			r += math.Abs(beta[i-1])
		}
		if i < len(beta) {
			r += math.Abs(beta[i])
		}
		if alpha[i]-r < lo {
			lo = alpha[i] - r
		}
		if alpha[i]+r > hi {
			hi = alpha[i] + r
		}
	}
	countBelow := func(x float64) int {
		// Sturm sequence: number of eigenvalues < x.
		count := 0
		d := alpha[0] - x
		if d < 0 {
			count++
		}
		for i := 1; i < len(alpha); i++ {
			b2 := beta[i-1] * beta[i-1]
			if d == 0 {
				d = 1e-300
			}
			d = alpha[i] - x - b2/d
			if d < 0 {
				count++
			}
		}
		return count
	}
	for it := 0; it < 200 && hi-lo > 1e-12*(1+math.Abs(lo)); it++ {
		mid := (lo + hi) / 2
		if countBelow(mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// eigvecTri computes an eigenvector of the tridiagonal (alpha, beta)
// for eigenvalue lam by inverse iteration with a Thomas solve.
func eigvecTri(alpha, beta []float64, lam float64) ([]float64, bool) {
	k := len(alpha)
	x := make([]float64, k)
	for i := range x {
		x[i] = 1 / float64(k+i+1) // deterministic non-degenerate start
	}
	shift := lam - 1e-8
	for iter := 0; iter < 4; iter++ {
		nx, ok := thomasSolve(alpha, beta, shift, x)
		if !ok {
			shift -= 1e-8
			continue
		}
		x = nx
		nm := Norm(x)
		if nm < 1e-300 {
			return nil, false
		}
		for i := range x {
			x[i] /= nm
		}
	}
	return x, true
}

// thomasSolve solves (T − shift I) y = b for tridiagonal T.
func thomasSolve(alpha, beta []float64, shift float64, b []float64) ([]float64, bool) {
	k := len(alpha)
	c := make([]float64, k) // modified super-diagonal
	d := make([]float64, k) // modified rhs
	den := alpha[0] - shift
	if math.Abs(den) < 1e-300 {
		return nil, false
	}
	if k > 1 {
		c[0] = beta[0] / den
	}
	d[0] = b[0] / den
	for i := 1; i < k; i++ {
		den = alpha[i] - shift - beta[i-1]*c[i-1]
		if math.Abs(den) < 1e-300 {
			return nil, false
		}
		if i < k-1 {
			c[i] = beta[i] / den
		}
		d[i] = (b[i] - beta[i-1]*d[i-1]) / den
	}
	y := make([]float64, k)
	y[k-1] = d[k-1]
	for i := k - 2; i >= 0; i-- {
		y[i] = d[i] - c[i]*y[i+1]
	}
	return y, true
}
