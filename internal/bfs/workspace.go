package bfs

import "snap/internal/frontier"

// Workspace is reusable BFS state for multi-source traversal loops —
// an alias of the shared frontier.Engine, which owns the epoch-stamped
// visited encoding, the visitation order, and the level-synchronous
// direction-optimizing step loop. See frontier.Engine for the state
// invariants; the alias keeps the historical bfs-centric name that
// kernel packages and the facade use.
type Workspace = frontier.Engine

// AcquireWorkspace returns a pooled workspace sized for n vertices.
// Release it with ReleaseWorkspace when the traversal loop ends. The
// pool is shared with every direct frontier.Engine consumer, so
// back-to-back kernels on same-sized graphs reach allocation-free
// steady state.
func AcquireWorkspace(n int) *Workspace { return frontier.AcquireEngine(n) }

// ReleaseWorkspace returns a workspace to the pool. The caller must
// not use ws (or results read from it) afterwards.
func ReleaseWorkspace(ws *Workspace) { frontier.ReleaseEngine(ws) }
