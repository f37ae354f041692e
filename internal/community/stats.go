package community

import "math/bits"

// MaxLouvainLevels caps Louvain's contraction hierarchy; a MoveStats
// has one row per level.
const MaxLouvainLevels = 16

// MoveStats is a caller-owned, fixed-size record of one Louvain run:
// point LouvainOptions.Stats at one and read it after the call. It is
// reset at the start of the run and filled without allocating; nil
// switches it off. It reports what the move engine did and steers
// nothing.
type MoveStats struct {
	// Levels counts the levels local moving ran on, the last one
	// included even when it moved nothing and so ended the hierarchy.
	Levels int
	Level  [MaxLouvainLevels]MoveLevelStats
}

// MoveLevelStats describes local moving on one Louvain level.
type MoveLevelStats struct {
	// N is the level's vertex count (communities of the level below).
	N int64
	// Passes is the number of passes run, at most louvainPasses.
	Passes int
	Pass   [louvainPasses]MovePassStats
}

// MovePassStats describes one local-moving pass.
type MovePassStats struct {
	// Full reports that every vertex was active: pass 0, and each
	// confirmation pass after a pruned pass that moved nothing.
	Full bool
	// Examined counts the active vertices whose best move was computed
	// in the propose phase; Proposed those with a positive-gain move;
	// Applied the proposals that still improved Q when re-validated.
	Examined, Proposed, Applied int64
}

// level starts the record of level lv with n vertices and returns it,
// nil when statistics are off.
func (st *MoveStats) level(lv, n int) *MoveLevelStats {
	if st == nil {
		return nil
	}
	st.Levels++
	ls := &st.Level[lv]
	ls.N = int64(n)
	return ls
}

// record appends one pass; active is the pass's active-set bitmap.
func (ls *MoveLevelStats) record(active []uint64, full bool, proposed, applied int) {
	var examined int
	for _, w := range active {
		examined += bits.OnesCount64(w)
	}
	ls.Pass[ls.Passes] = MovePassStats{Full: full, Examined: int64(examined), Proposed: int64(proposed), Applied: int64(applied)}
	ls.Passes++
}
