package graph

import (
	"errors"
	"io"
	"testing"
)

// TestUseAfterClose pins the closed-graph guard: once Close has run a
// registered closer, the error-returning entry points that read the CSR
// refuse with ErrClosed instead of touching the (conceptually dead)
// backing slices.
func TestUseAfterClose(t *testing.T) {
	g := MustBuild(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
	}, BuildOptions{})

	// Heap graphs have no closer: Close is a no-op and never marks the
	// graph closed.
	if err := g.Close(); err != nil {
		t.Fatalf("heap Close: %v", err)
	}
	if g.Closed() {
		t.Fatal("heap graph reports Closed after no-op Close")
	}
	if err := g.CheckOpen(); err != nil {
		t.Fatalf("heap CheckOpen: %v", err)
	}

	closes := 0
	g.SetCloser(func() error { closes++; return nil })
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if closes != 1 {
		t.Fatalf("closer ran %d times, want 1", closes)
	}
	if err := g.Close(); err != nil || closes != 1 {
		t.Fatalf("second Close: err=%v closes=%d, want idempotent no-op", err, closes)
	}
	if !g.Closed() {
		t.Fatal("Closed() = false after Close ran the closer")
	}
	if err := g.CheckOpen(); !errors.Is(err, ErrClosed) {
		t.Fatalf("CheckOpen = %v, want ErrClosed", err)
	}

	if err := WriteEdgeList(io.Discard, g); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteEdgeList on closed graph: %v, want ErrClosed", err)
	}
	if _, err := MergeDelta(g, []Edge{{U: 0, V: 5}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("MergeDelta on closed graph: %v, want ErrClosed", err)
	}
	if _, _, err := Relabel(g, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Relabel on closed graph: %v, want ErrClosed", err)
	}
	if _, _, err := InducedSubgraph(g, []int32{0, 1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("InducedSubgraph on closed graph: %v, want ErrClosed", err)
	}
}
