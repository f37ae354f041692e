package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Out:     buf,
		Scale:   0.004,
		K:       4,
		Workers: []int{1},
		GNMaxN:  50,
		Seed:    1,
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table1(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"Table 1", "Physical (road)", "Sparse random", "Small-world", "Metis-kway"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	Table3(tinyConfig(&buf))
	out := buf.String()
	for _, want := range []string{"PPI", "Citations", "DBLP", "NDwww", "Actor", "RMAT-SF"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestFigure3bSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	// The W-thread column measures the largest sweep entry, wherever
	// it sits in the list.
	cfg.Workers = []int{2, 1}
	Figure3b(cfg)
	out := buf.String()
	if !strings.Contains(out, "Figure 3(b)") || !strings.Contains(out, "(1 -> 2 threads)") || !strings.Contains(out, "PPI") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var buf bytes.Buffer
	c := Config{Out: &buf}
	c.fill()
	if c.Scale != 0.1 || c.K != 32 || len(c.Workers) == 0 || c.GNMaxN != 1200 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestConfigRequiresOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing Out")
		}
	}()
	c := Config{}
	c.fill()
}

func TestPatienceFor(t *testing.T) {
	if p := patienceFor(100); p != 0 {
		t.Fatalf("small m patience = %d, want 0 (full run)", p)
	}
	if p := patienceFor(4000); p != 500 {
		t.Fatalf("patience floor = %d, want 500", p)
	}
	if p := patienceFor(1000000); p != 3000 {
		t.Fatalf("patience cap = %d, want 3000", p)
	}
}
