package sketch

// MaxStatsSweeps is the number of sweeps an ANFStats has room for. A
// longer run keeps counting in Sweeps and drops the per-sweep rows past
// the end.
const MaxStatsSweeps = 64

// ANFStats is a caller-owned, fixed-size record of one HyperANF run:
// hand a pointer to ANFOptions.Stats and read it after the call. It is
// reset at the start of the run and filled without allocating; nil
// switches it off. It reports what the kernel did and steers nothing.
type ANFStats struct {
	// Sweeps is the number of sweeps run, the last one included even
	// when it found the fixpoint (nothing grew) and so is not counted in
	// ANFResult.Sweeps.
	Sweeps int
	Sweep  [MaxStatsSweeps]SweepStats
}

// SweepStats describes one union sweep.
type SweepStats struct {
	// Sparse reports that the sweep visited only the neighbors of the
	// previous sweep's changed rows instead of every row.
	Sparse bool
	// Rows is the number of rows visited; Unions the changed neighbor
	// rows folded into them; Words the register words that grew; Changed
	// the rows that grew — the next sweep's changed list.
	Rows, Unions, Words, Changed int64
}

// record appends one sweep, summing the workers' tallies.
func (st *ANFStats) record(sparse bool, tallies []sweepTally, changed int) {
	i := st.Sweeps
	st.Sweeps++
	if i >= MaxStatsSweeps {
		return
	}
	s := SweepStats{Sparse: sparse, Changed: int64(changed)}
	for _, t := range tallies {
		s.Rows += t.rows
		s.Unions += t.unions
		s.Words += t.words
	}
	st.Sweep[i] = s
}
