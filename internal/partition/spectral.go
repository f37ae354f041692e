package partition

import (
	"math"
	"math/rand"

	"snap/internal/graph"
	"snap/internal/sketch"
)

// SpectralOptions configures the Chaco-style spectral partitioners.
type SpectralOptions struct {
	// MaxIterations bounds the eigensolver work per bisection
	// (power-iteration steps for RQI, Lanczos steps for LAN).
	// Defaults: 3000 (RQI), 300 (LAN).
	MaxIterations int
	// Tolerance is the relative eigen-residual required for
	// convergence (default 1e-4). Failing to reach it within the
	// budget yields ErrNoConvergence, mirroring the Chaco failures the
	// paper reports on small-world instances.
	Tolerance float64
	// Refine applies boundary refinement after each median split
	// (Chaco's spectral+KL mode). Default true.
	Refine bool
	// Seed drives the random starting vectors.
	Seed int64

	refinePasses int
	imbalance    float64
}

func (o *SpectralOptions) fill(defaultIter int) {
	if o.MaxIterations <= 0 {
		o.MaxIterations = defaultIter
	}
	if !(o.Tolerance > 0) {
		o.Tolerance = 1e-4
	}
	o.refinePasses = 4
	o.imbalance = 0.05
}

// SpectralRQI partitions g into k parts by recursive spectral
// bisection, computing each Fiedler vector with multilevel-accelerated
// power iteration and a Rayleigh-quotient convergence test — the
// Chaco-RQI analogue.
func SpectralRQI(g *graph.Graph, k int, opt SpectralOptions) (Result, error) {
	if err := validateK(g, k); err != nil {
		return Result{}, err
	}
	opt.fill(3000)
	return spectralRecursive(g, k, opt, fiedlerRQI)
}

// SpectralLanczos partitions g into k parts by recursive spectral
// bisection with a Lanczos eigensolver (full reorthogonalization,
// Sturm-sequence bisection on the tridiagonal) — the Chaco-LAN
// analogue.
func SpectralLanczos(g *graph.Graph, k int, opt SpectralOptions) (Result, error) {
	if err := validateK(g, k); err != nil {
		return Result{}, err
	}
	opt.fill(300)
	return spectralRecursive(g, k, opt, fiedlerLanczos)
}

type fiedlerFunc func(w *wgraph, opt SpectralOptions, rng *rand.Rand) ([]float64, error)

func spectralRecursive(g *graph.Graph, k int, opt SpectralOptions, fiedler fiedlerFunc) (Result, error) {
	part := make([]int32, g.NumVertices())
	w := fromGraph(g)
	verts := make([]int32, g.NumVertices())
	for i := range verts {
		verts[i] = int32(i)
	}
	mlOpt := MultilevelOptions{Imbalance: opt.imbalance, RefinePasses: opt.refinePasses, Seed: opt.Seed}
	rb := &recursiveBisector{
		opt:  mlOpt,
		seed: sketch.EffectiveSeed(opt.Seed),
		part: part,
		bisect: func(w *wgraph, frac float64, _ MultilevelOptions, rng *rand.Rand) ([]int32, error) {
			return spectralBisect(w, frac, opt, fiedler, rng)
		},
	}
	rb.split(w, verts, 0, k)
	if rb.err != nil {
		return Result{}, rb.err
	}
	return finish(g, part, k), nil
}

// spectralBisect splits one weighted graph by its Fiedler vector,
// placing the frac-weight prefix of the sorted vector on side 0.
func spectralBisect(w *wgraph, frac float64, opt SpectralOptions, fiedler fiedlerFunc, rng *rand.Rand) ([]int32, error) {
	n := w.n()
	side := make([]int32, n)
	if n <= 1 {
		return side, nil
	}
	if n == 2 {
		side[1] = 1
		return side, nil
	}
	// The eigensolvers are seed-sensitive on near-degenerate spectra;
	// retry a few restarts before declaring failure (Chaco-style
	// robustness: a failed restart is not a failed partitioner).
	var fv []float64
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		fv, err = fiedler(w, opt, rng)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	// Weighted median split along the Fiedler order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sortByValue(order, fv)
	total := w.totalVW()
	target := int64(frac * float64(total))
	var acc int64
	for _, v := range order {
		if acc < target {
			side[v] = 0
			acc += w.vw[v]
		} else {
			side[v] = 1
		}
	}
	if opt.Refine {
		mlOpt := MultilevelOptions{Imbalance: opt.imbalance, RefinePasses: opt.refinePasses, Seed: opt.Seed}
		refineBisection(w, side, frac, mlOpt, rng)
	}
	return side, nil
}

func sortByValue(order []int32, val []float64) {
	// Heapsort on (val, id) to stay allocation-free and deterministic.
	less := func(a, b int32) bool {
		if val[a] != val[b] {
			return val[a] < val[b]
		}
		return a < b
	}
	nh := len(order)
	for i := nh/2 - 1; i >= 0; i-- {
		siftDown(order, i, nh, less)
	}
	for end := nh - 1; end > 0; end-- {
		order[0], order[end] = order[end], order[0]
		siftDown(order, 0, end, less)
	}
}

func siftDown(a []int32, start, end int, less func(x, y int32) bool) {
	root := start
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(a[child], a[child+1]) {
			child++
		}
		if !less(a[root], a[child]) {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// lapMul computes y = L x for the weighted Laplacian of w.
func lapMul(w *wgraph, x, y []float64) {
	n := w.n()
	for v := 0; v < n; v++ {
		var s, d float64
		for a := w.offsets[v]; a < w.offsets[v+1]; a++ {
			ew := float64(w.ew[a])
			s += ew * x[w.adj[a]]
			d += ew
		}
		y[v] = d*x[v] - s
	}
}

func maxWeightedDegree(w *wgraph) float64 {
	mx := 0.0
	for v := int32(0); int(v) < w.n(); v++ {
		if d := float64(w.degree(v)); d > mx {
			mx = d
		}
	}
	return mx
}

func deflateOnes(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) bool {
	nm := norm(x)
	if nm < 1e-300 {
		return false
	}
	inv := 1 / nm
	for i := range x {
		x[i] *= inv
	}
	return true
}

// fiedlerRQI approximates the Fiedler vector with multilevel
// acceleration: the vector is computed on a coarsened graph first,
// interpolated upward, and polished at each level by power iteration
// on (cI − L) with a Rayleigh-quotient residual test.
func fiedlerRQI(w *wgraph, opt SpectralOptions, rng *rand.Rand) ([]float64, error) {
	levels, maps := coarsenHierarchy(w, 64, int64(rng.Uint64()))
	coarsest := levels[len(levels)-1]
	x := randomVector(coarsest.n(), rng)
	if _, err := polish(coarsest, x, opt.MaxIterations, opt.Tolerance); err != nil {
		return nil, err
	}
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		coarseOf := maps[li]
		fx := make([]float64, fine.n())
		for v := range fx {
			fx[v] = x[coarseOf[v]]
		}
		x = fx
		iters := opt.MaxIterations / 4
		if li == 0 {
			iters = opt.MaxIterations
		}
		if _, err := polish(fine, x, iters, opt.Tolerance); err != nil && li == 0 {
			return nil, err
		}
	}
	return x, nil
}

// polish runs deflated power iteration on B = cI − L until either the
// Rayleigh-quotient residual of x drops below tol (true eigenpair
// convergence) or the Rayleigh quotient itself stabilizes (the vector
// direction has stopped improving — sufficient for a median split even
// when near-degenerate eigenvalues keep the residual from vanishing,
// as on large meshes with tiny spectral gaps).
func polish(w *wgraph, x []float64, maxIter int, tol float64) (float64, error) {
	n := w.n()
	if n <= 2 {
		return 0, nil
	}
	c := 2*maxWeightedDegree(w) + 1
	y := make([]float64, n)
	deflateOnes(x)
	if !normalize(x) {
		return 0, ErrNoConvergence
	}
	lambda := 0.0
	prevRQ := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		lapMul(w, x, y)
		// Rayleigh quotient and residual on L.
		var rq float64
		for i := range x {
			rq += x[i] * y[i]
		}
		var res float64
		for i := range x {
			d := y[i] - rq*x[i]
			res += d * d
		}
		lambda = rq
		// Residual is judged against the operator scale c (≈ the
		// largest Laplacian eigenvalue), not against λ2: meshes have
		// tiny λ2 and a λ2-relative test would demand far more
		// precision than the median split needs.
		if math.Sqrt(res) <= tol*c {
			return lambda, nil
		}
		if it%64 == 63 {
			if math.Abs(prevRQ-rq) <= 1e-6*math.Max(rq, 1e-12) {
				return lambda, nil
			}
			prevRQ = rq
		}
		// x <- normalize(deflate(c*x − y))
		for i := range x {
			x[i] = c*x[i] - y[i]
		}
		deflateOnes(x)
		if !normalize(x) {
			return 0, ErrNoConvergence
		}
	}
	return lambda, ErrNoConvergence
}

func randomVector(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// fiedlerLanczos computes the Fiedler vector by the Lanczos process
// with full reorthogonalization. The second-smallest Laplacian
// eigenvalue is isolated by deflating the constant vector, so the
// smallest Ritz value of the tridiagonal approximates lambda_2.
func fiedlerLanczos(w *wgraph, opt SpectralOptions, rng *rand.Rand) ([]float64, error) {
	n := w.n()
	steps := opt.MaxIterations
	if steps > n-1 {
		steps = n - 1
	}
	if steps < 2 {
		steps = 2
	}
	q := make([][]float64, 0, steps+1)
	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps)

	q0 := randomVector(n, rng)
	deflateOnes(q0)
	if !normalize(q0) {
		return nil, ErrNoConvergence
	}
	q = append(q, q0)
	y := make([]float64, n)
	for j := 0; j < steps; j++ {
		lapMul(w, q[j], y)
		a := dot(q[j], y)
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
		// Full reorthogonalization (against ones and all basis
		// vectors) keeps the Ritz values honest.
		deflateOnes(y)
		for _, qi := range q {
			d := dot(qi, y)
			for i := range y {
				y[i] -= d * qi[i]
			}
		}
		b := norm(y)
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
		return nil, ErrNoConvergence
	}
	lam := smallestEigTri(alpha[:k], beta[:min(k-1, len(beta))])
	z, ok := eigvecTri(alpha[:k], beta[:min(k-1, len(beta))], lam)
	if !ok {
		return nil, ErrNoConvergence
	}
	// Map back: fv = sum z_j q_j.
	fv := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range fv {
			fv[i] += z[j] * q[j][i]
		}
	}
	// Convergence check: residual of (lam, fv) on L.
	lapMul(w, fv, y)
	var res float64
	nrm := norm(fv)
	if nrm < 1e-300 {
		return nil, ErrNoConvergence
	}
	for i := range fv {
		d := y[i] - lam*fv[i]
		res += d * d
	}
	if math.Sqrt(res)/nrm > opt.Tolerance*math.Max(lam, 1.0)*10 {
		return nil, ErrNoConvergence
	}
	return fv, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
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
		nm := norm(x)
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
