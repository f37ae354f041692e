package treap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertContainsDelete(t *testing.T) {
	tr := New(1)
	if tr.Contains(5) {
		t.Fatal("empty treap contains 5")
	}
	if !tr.Insert(5) || tr.Insert(5) {
		t.Fatal("insert semantics wrong")
	}
	if !tr.Contains(5) || tr.Len() != 1 {
		t.Fatal("contains/len after insert wrong")
	}
	if !tr.Delete(5) || tr.Delete(5) {
		t.Fatal("delete semantics wrong")
	}
	if tr.Contains(5) || tr.Len() != 0 {
		t.Fatal("contains/len after delete wrong")
	}
}

func TestKeysSorted(t *testing.T) {
	tr := New(2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tr.Insert(int32(rng.Intn(500)))
	}
	keys := tr.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Keys not sorted")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatal("duplicate key stored")
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	tr := FromKeys(4, []int32{1, 2, 3, 4, 5})
	count := 0
	tr.Each(func(int32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Each visited %d keys, want 3", count)
	}
}

// TestQuickSetSemantics cross-validates the treap against a map oracle
// on random operation sequences.
func TestQuickSetSemantics(t *testing.T) {
	check := func(ops []int16) bool {
		tr := New(99)
		oracle := map[int32]bool{}
		for _, op := range ops {
			key := int32(op % 64)
			if key < 0 {
				key = -key
			}
			if op%3 == 0 {
				ins := tr.Insert(key)
				if ins == oracle[key] {
					return false // Insert returns true iff absent
				}
				oracle[key] = true
			} else if op%3 == 1 {
				del := tr.Delete(key)
				if del != oracle[key] {
					return false
				}
				delete(oracle, key)
			} else {
				if tr.Contains(key) != oracle[key] {
					return false
				}
			}
		}
		if tr.Len() != len(oracle) {
			return false
		}
		for _, k := range tr.Keys() {
			if !oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func toSet(xs []int32) map[int32]bool {
	s := map[int32]bool{}
	for _, x := range xs {
		s[x%128] = true
	}
	return s
}

func fromSet(seed int64, s map[int32]bool) *Treap {
	tr := New(seed)
	for k := range s {
		tr.Insert(k)
	}
	return tr
}

// TestQuickSetOps cross-validates Union/Intersect/Difference against
// map-based set algebra.
func TestQuickSetOps(t *testing.T) {
	check := func(xs, ys []int32) bool {
		sx, sy := toSet(xs), toSet(ys)
		tx, ty := fromSet(11, sx), fromSet(22, sy)

		u := Union(tx, ty)
		for k := range sx {
			if !u.Contains(k) {
				return false
			}
		}
		for k := range sy {
			if !u.Contains(k) {
				return false
			}
		}
		wantU := 0
		seen := map[int32]bool{}
		for k := range sx {
			seen[k] = true
		}
		for k := range sy {
			seen[k] = true
		}
		wantU = len(seen)
		if u.Len() != wantU {
			return false
		}

		in := Intersect(tx, ty)
		for k := range seen {
			want := sx[k] && sy[k]
			if in.Contains(k) != want {
				return false
			}
		}

		df := Difference(tx, ty)
		for k := range seen {
			want := sx[k] && !sy[k]
			if df.Contains(k) != want {
				return false
			}
		}
		// Inputs must be unmodified.
		if tx.Len() != len(sx) || ty.Len() != len(sy) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderInvariant: Keys() is always sorted and duplicate-free
// after arbitrary insert/delete interleavings.
func TestQuickOrderInvariant(t *testing.T) {
	check := func(ops []int32) bool {
		tr := New(7)
		for i, op := range ops {
			k := op % 256
			if k < 0 {
				k = -k
			}
			if i%2 == 0 {
				tr.Insert(k)
			} else {
				tr.Delete(k)
			}
		}
		keys := tr.Keys()
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return len(keys) == tr.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreapInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(int32(rng.Intn(1 << 20)))
	}
}

func BenchmarkTreapContains(b *testing.B) {
	tr := New(1)
	for i := 0; i < 1<<16; i++ {
		tr.Insert(int32(i * 3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Contains(int32(i % (1 << 18)))
	}
}
