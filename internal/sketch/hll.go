package sketch

import (
	"math"
	"math/bits"
)

// HyperLogLog register plumbing for the neighborhood-function kernel.
//
// Every vertex owns a row of R one-byte registers packed into R/8
// uint64 words, so the HyperANF union "counter(v) ← counter(v) ⊔
// counter(u)" is a word-wise byte-max over the two rows — eight
// registers per bit-parallel step instead of one. Register values are
// bounded by 1 + (64 − log2 R) ≤ 61 < 0x80, which is what licenses the
// borrow-free SWAR byte comparison in maxWordBytes.
//
// Rows are unions of hashed vertex ids, and the hash is a fixed
// bijective mix of (vertex, seed): the union lattice (max per
// register) is commutative, associative, and idempotent, so any
// evaluation order — serial, chunked, degree-aware — produces the same
// registers bit for bit. That is the whole determinism argument for
// the parallel sweeps; no atomics or locks are involved because each
// row has exactly one writer per sweep.

const (
	// minRegisters..maxRegisters bound the per-vertex register count;
	// powers of two only. 64 registers (one cache line per vertex,
	// ~13% per-vertex standard error, far less after summing over n
	// vertices) is the default speed/accuracy point.
	minRegisters     = 16
	maxRegisters     = 256
	defaultRegisters = 64
)

// hllParams resolves a requested register count to (registers, words
// per row, bucket bits, alpha bias constant).
type hllParams struct {
	regs  int     // registers per vertex (power of two)
	words int     // uint64 words per row = regs/8
	bits  uint    // log2(regs): hash bits consumed by the bucket index
	alpha float64 // HyperLogLog bias correction constant
	// linear[z] is the small-range estimate m·ln(m/z) for z zero
	// registers, z ∈ [1, regs] (entry 0 unused).
	linear []float64
}

func makeParams(registers int) hllParams {
	r := registers
	if r <= 0 {
		r = defaultRegisters
	}
	if r < minRegisters {
		r = minRegisters
	}
	if r > maxRegisters {
		r = maxRegisters
	}
	// Round up to a power of two (bucket index must be a bit mask).
	p := minRegisters
	for p < r {
		p <<= 1
	}
	var alpha float64
	switch p {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	default:
		alpha = 0.7213 / (1 + 1.079/float64(p))
	}
	bits := uint(0)
	for 1<<bits < p {
		bits++
	}
	return hllParams{regs: p, words: p / 8, bits: bits, alpha: alpha, linear: linearTables[bits]}
}

// linearTables[b] is hllParams.linear for 2^b registers, built once with
// the very expression estimateFrom used to evaluate per call, so a
// lookup returns the same float64 bit for bit.
var linearTables = func() (t [9][]float64) {
	for r := minRegisters; r <= maxRegisters; r <<= 1 {
		m := float64(r)
		tab := make([]float64, r+1)
		for z := 1; z <= r; z++ {
			tab[z] = m * math.Log(m/float64(z))
		}
		t[bits.TrailingZeros(uint(r))] = tab
	}
	return t
}()

// mix64 is the splitmix64 finalizer: a fixed bijective scramble whose
// output bits pass the usual avalanche tests. Element hashes are
// mix64(vertex ^ mix64(seed)) — deterministic in (vertex, seed), and
// changing the seed re-randomizes every bucket/rank assignment.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hllInsert folds element hash h into the row: register h&(R−1) takes
// the max with rho(h >> bits), the 1-based position of the first set
// bit of the remaining hash bits (counted from the top of the 64−bits
// window). Values lie in [1, 65−bits].
func hllInsert(row []uint64, h uint64, p hllParams) {
	bucket := h & uint64(p.regs-1)
	w := h >> p.bits
	// Leading zeros within the (64-bits)-bit window: shift the window
	// to the top of the word first.
	rho := uint64(bits.LeadingZeros64(w<<p.bits)) + 1
	if rho > 64-uint64(p.bits)+1 {
		rho = 64 - uint64(p.bits) + 1
	}
	word := bucket >> 3
	shift := (bucket & 7) * 8
	curr := (row[word] >> shift) & 0xff
	if rho > curr {
		row[word] = (row[word] &^ (uint64(0xff) << shift)) | (rho << shift)
	}
}

// byteMSBs masks the most-significant bit of every byte lane.
const byteMSBs = 0x8080808080808080

// maxWordBytes returns the lane-wise unsigned byte maximum of x and y.
// It requires every byte of both operands to be < 0x80, which HLL
// registers guarantee (max value 61). Under that precondition
// (x|MSBs)−y cannot borrow across byte lanes, and each lane's MSB in
// the difference is set exactly when x's byte ≥ y's byte; spreading
// that bit to a full-byte mask selects the winner per lane.
func maxWordBytes(x, y uint64) uint64 {
	ge := ((x | byteMSBs) - y) & byteMSBs
	mask := (ge >> 7) * 0xff
	return (x & mask) | (y &^ mask)
}

// unionRowsSum folds src into dst lane-wise (dst ← dst ⊔ src) and
// keeps the incremental estimator state (the Boldi–Rosa–Vigna systolic
// trick): it returns the change to the row's harmonic sum Σ 2^−reg and
// zero-register count, plus the number of words that grew, so the
// caller keeps a cardinality estimate in O(grown registers) instead of
// rescanning all R after every union.
//
// Every word is stored whether or not it grew (the byte max of an
// unchanged word is the word itself), so the only data-dependent
// branches are the walk over the grown lanes of m^x and its entry test.
// The walk visits lanes in ascending order within ascending words, and
// each row has one writer that folds its neighbors in adjacency order,
// so the float accumulation order — hence the estimate, bit for bit —
// is the same at every worker count.
func unionRowsSum(dst, src []uint64, pow *[66]float64) (dSum float64, dZeros int32, words int) {
	_ = dst[len(src)-1]
	for i, y := range src {
		x := dst[i]
		m := maxWordBytes(x, y)
		dst[i] = m
		diff := m ^ x
		if diff == 0 {
			continue
		}
		words++
		for diff != 0 {
			s := uint(bits.TrailingZeros64(diff)) &^ 7
			old := (x >> s) & 0xff
			dSum += pow[(m>>s)&0xff] - pow[old]
			dZeros -= int32((old - 1) >> 63) // old == 0: one zero register fewer
			diff &^= 0xff << s
		}
	}
	return dSum, dZeros, words
}

// rowSummary scans one row into the estimator state: the harmonic sum
// Σ 2^−reg and the zero-register count. O(R); used at plane init, after
// which unionRowsSum maintains both incrementally.
func rowSummary(row []uint64, pow *[66]float64) (sum float64, zeros int32) {
	for _, w := range row {
		for s := 0; s < 64; s += 8 {
			r := (w >> uint(s)) & 0xff
			if r == 0 {
				zeros++
			}
			sum += pow[r]
		}
	}
	return sum, zeros
}

// estimateFrom turns the maintained (sum, zeros) state into the
// cardinality estimate: the raw HyperLogLog harmonic-mean estimator
// with the standard small-range (linear counting) correction. No
// large-range correction is needed — the 64-bit hash space is never
// saturated by graph-sized sets.
func estimateFrom(sum float64, zeros int32, p hllParams) float64 {
	m := float64(p.regs)
	est := p.alpha * m * m / sum
	if est <= 2.5*m && zeros != 0 {
		est = p.linear[zeros]
	}
	return est
}

// makePow2Neg builds the 2^−r lookup behind the harmonic sums (r ≤ 65).
func makePow2Neg() *[66]float64 {
	var t [66]float64
	for i := range t {
		t[i] = math.Pow(2, -float64(i))
	}
	return &t
}

var pow2neg = makePow2Neg()
