package partition

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"snap/internal/eigen"
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
	// Seed drives the random starting vectors.
	Seed int64
}

func (o *SpectralOptions) fill(defaultIter int) {
	if o.MaxIterations <= 0 {
		o.MaxIterations = defaultIter
	}
	if !(o.Tolerance > 0) {
		o.Tolerance = 1e-4
	}
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

// fiedlerFunc approximates the Fiedler vector of w; ws is the
// recursion's shared workspace.
type fiedlerFunc func(ws *Workspace, w wview, opt SpectralOptions, rng *rand.Rand) ([]float64, error)

func spectralRecursive(g *graph.Graph, k int, opt SpectralOptions, fiedler fiedlerFunc) (Result, error) {
	return recursiveBisection(g, k, opt.Seed, func(ws *Workspace, w wview, kl, kr int, seed int64) ([]int32, error) {
		return spectralBisect(ws, w, float64(kl)/float64(kl+kr), opt, fiedler, sketch.NewRNG(seed))
	})
}

// spectralBisect splits one weighted graph by its Fiedler vector,
// placing the frac-weight prefix of the sorted vector on side 0.
func spectralBisect(ws *Workspace, w wview, frac float64, opt SpectralOptions, fiedler fiedlerFunc, rng *rand.Rand) ([]int32, error) {
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
		fv, err = fiedler(ws, w, opt, rng)
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
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(fv[a], fv[b]), cmp.Compare(a, b))
	})
	total := w.totalVW()
	target := int64(frac * float64(total))
	var acc int64
	for _, v := range order {
		if acc < target {
			side[v] = 0
			acc += w.vweight(v)
		} else {
			side[v] = 1
		}
	}
	return side, nil
}

// lapMul computes y = L x for the weighted Laplacian of w.
func lapMul(w wview, x, y []float64) {
	n := w.n()
	for v := 0; v < n; v++ {
		var s, d float64
		for a := w.off[v]; a < w.off[v+1]; a++ {
			ew := float64(w.eweight(a))
			s += ew * x[w.adj[a]]
			d += ew
		}
		y[v] = d*x[v] - s
	}
}

func maxWeightedDegree(w wview) float64 {
	mx := 0.0
	for v := 0; v < w.n(); v++ {
		var d int64
		for a := w.off[v]; a < w.off[v+1]; a++ {
			d += w.eweight(a)
		}
		mx = max(mx, float64(d))
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

// fiedlerRQI approximates the Fiedler vector with multilevel
// acceleration: the vector is computed on a coarsened graph first (the
// workspace's hierarchy over w), interpolated upward, and polished at
// each level by power iteration on (cI − L) with a Rayleigh-quotient
// residual test.
func fiedlerRQI(ws *Workspace, w wview, opt SpectralOptions, rng *rand.Rand) ([]float64, error) {
	ws.primeLevel0(w, nil)
	levels := ws.coarsenToSize(64, int64(rng.Uint64()), 1)
	coarsest := ws.lv[levels-1].view
	x := eigen.RandomVector(coarsest.n(), rng)
	if _, err := polish(coarsest, x, opt.MaxIterations, opt.Tolerance); err != nil {
		return nil, err
	}
	for li := levels - 2; li >= 0; li-- {
		fine := ws.lv[li].view
		coarseOf := ws.lv[li].coarseOf
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
func polish(w wview, x []float64, maxIter int, tol float64) (float64, error) {
	n := w.n()
	if n <= 2 {
		return 0, nil
	}
	c := 2*maxWeightedDegree(w) + 1
	y := make([]float64, n)
	deflateOnes(x)
	if !eigen.Normalize(x) {
		return 0, ErrNoConvergence
	}
	lambda := 0.0
	prevRQ := math.Inf(1)
	for it := 0; it < maxIter; it++ {
		lapMul(w, x, y)
		// Rayleigh quotient and residual on L.
		rq := eigen.Dot(x, y)
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
		if !eigen.Normalize(x) {
			return 0, ErrNoConvergence
		}
	}
	return lambda, ErrNoConvergence
}

// fiedlerLanczos computes the Fiedler vector by the Lanczos process
// with full reorthogonalization. The second-smallest Laplacian
// eigenvalue is isolated by deflating the constant vector, so the
// smallest Ritz value of the tridiagonal approximates lambda_2.
func fiedlerLanczos(_ *Workspace, w wview, opt SpectralOptions, rng *rand.Rand) ([]float64, error) {
	n := w.n()
	steps := opt.MaxIterations
	if steps > n-1 {
		steps = n - 1
	}
	if steps < 2 {
		steps = 2
	}
	mul := func(x, y []float64) { lapMul(w, x, y) }
	lam, fv, ok := eigen.Lanczos(n, steps, mul, deflateOnes, rng)
	if !ok {
		return nil, ErrNoConvergence
	}
	// Convergence check: residual of (lam, fv) on L.
	y := make([]float64, n)
	lapMul(w, fv, y)
	var res float64
	nrm := eigen.Norm(fv)
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
