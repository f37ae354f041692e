package metrics

import (
	"testing"

	"snap/internal/generate"
	"snap/internal/sketch"
)

// TestAvgPathLengthApproxRoutesToSketch pins that the Approx option is
// a pure routing decision: the metrics entry point returns exactly the
// sketch kernel's numbers.
func TestAvgPathLengthApproxRoutesToSketch(t *testing.T) {
	g := generate.RMAT(2000, 8000, generate.DefaultRMAT(), 3)
	avg, diam := AvgPathLength(g, PathLengthOptions{Approx: true, Seed: 5, Registers: 128})
	want := sketch.ANF(g, sketch.ANFOptions{Seed: 5, Registers: 128})
	if avg != want.AvgPathLength || diam != want.DiameterEstimate {
		t.Fatalf("Approx routing: got (%v, %d), want (%v, %d)",
			avg, diam, want.AvgPathLength, want.DiameterEstimate)
	}
}

// TestAvgPathLengthApproxNearExact sanity-checks the approximate tier
// against the exact tier on a graph small enough for all-pairs BFS.
func TestAvgPathLengthApproxNearExact(t *testing.T) {
	g := generate.ErdosRenyi(1000, 4000, 7)
	exact, _ := AvgPathLength(g, PathLengthOptions{}) // n <= 1024: all-pairs
	approx, _ := AvgPathLength(g, PathLengthOptions{Approx: true, Registers: 256})
	if exact == 0 {
		t.Fatal("exact tier returned 0")
	}
	if rel := (approx - exact) / exact; rel > 0.15 || rel < -0.15 {
		t.Fatalf("approx avg %.3f vs exact %.3f (%.1f%% off)", approx, exact, 100*rel)
	}
}

// TestDiameterWithOptions pins both routes: the default is the exact
// iFUB value, Approx is the sketch's effective diameter verbatim.
func TestDiameterWithOptions(t *testing.T) {
	g := generate.RMAT(1500, 6000, generate.DefaultRMAT(), 9)
	if got, want := DiameterWithOptions(g, DiameterOptions{}), float64(Diameter(g)); got != want {
		t.Fatalf("exact route: %v, want %v", got, want)
	}
	opt := DiameterOptions{Approx: true, Registers: 128, Seed: 4}
	got := DiameterWithOptions(g, opt)
	want := sketch.ANF(g, sketch.ANFOptions{Registers: 128, Seed: 4}).EffectiveDiameter
	if got != want {
		t.Fatalf("approx route: %v, want %v", got, want)
	}
	// The effective diameter of the sketch cannot exceed the exact
	// diameter by more than the interpolation slack on a connected
	// small-world graph; sanity-bound it.
	if got > float64(Diameter(g))+1 {
		t.Fatalf("effective diameter %v exceeds exact diameter %d + 1", got, Diameter(g))
	}
}

// TestAvgPathLengthSeedZeroIsDefault pins the unified seeding contract
// at this layer: seed 0 and sketch.DefaultSeed sample the same
// sources.
func TestAvgPathLengthSeedZeroIsDefault(t *testing.T) {
	g := generate.RMAT(4000, 16000, generate.DefaultRMAT(), 11)
	zeroAvg, zeroD := AvgPathLength(g, PathLengthOptions{Samples: 64, Seed: 0})
	defAvg, defD := AvgPathLength(g, PathLengthOptions{Samples: 64, Seed: sketch.DefaultSeed})
	if zeroAvg != defAvg || zeroD != defD {
		t.Fatalf("seed 0 (%v, %d) differs from DefaultSeed (%v, %d)", zeroAvg, zeroD, defAvg, defD)
	}
}
