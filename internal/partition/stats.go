package partition

// MaxStatsLevels is the number of hierarchy levels a Stats has room
// for. Every level shrinks by at least a twentieth, so real ladders are
// a dozen levels deep; a deeper one keeps counting in Levels and drops
// the per-level rows past the end.
const MaxStatsLevels = 32

// Stats is a caller-owned, fixed-size record of one k-way run: hand a
// pointer to MultilevelOptions.Stats and read it after the call. It is
// reset at the start of the run and filled without allocating; nil
// switches it off. It reports what the engine did and steers nothing.
type Stats struct {
	// Levels is the hierarchy depth, the input graph included.
	Levels int
	// Level[0] is the input graph, Level[Levels-1] the coarsest.
	Level [MaxStatsLevels]LevelStats
}

// LevelStats describes one level of the hierarchy and the refinement
// that ran on it.
type LevelStats struct {
	// N and Arcs are the level's vertex and stored-arc counts.
	N, Arcs int64
	// CoarseN and CoarseArcs are the size of the level contracted from
	// this one (zero on the coarsest): CoarseN/N is the shrink ratio.
	CoarseN, CoarseArcs int64
	// Passes is the number of refinement passes run; Evaluated the
	// vertices whose best move was computed in their propose phases
	// (N per pass without the skip rule); Moves the moves applied.
	Passes    int
	Evaluated int64
	Moves     int64
}

// levelStats returns the record of level li, nil when statistics are
// off or the level is past the end of the record.
func (ws *Workspace) levelStats(li int) *LevelStats {
	if ws.stats == nil || li >= MaxStatsLevels {
		return nil
	}
	return &ws.stats.Level[li]
}
