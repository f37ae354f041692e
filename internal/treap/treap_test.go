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
	if !tr.Contains(5) || int(size(tr.root)) != 1 {
		t.Fatal("contains/len after insert wrong")
	}
	if !tr.Delete(5) || tr.Delete(5) {
		t.Fatal("delete semantics wrong")
	}
	if tr.Contains(5) || int(size(tr.root)) != 0 {
		t.Fatal("contains/len after delete wrong")
	}
}

// inorder returns the treap's keys by an in-order walk.
func inorder(t *Treap) []int32 {
	var out []int32
	var walk func(n *node)
	walk = func(n *node) {
		if n != nil {
			walk(n.left)
			out = append(out, n.key)
			walk(n.right)
		}
	}
	walk(t.root)
	return out
}

func TestKeysSorted(t *testing.T) {
	tr := New(2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tr.Insert(int32(rng.Intn(500)))
	}
	keys := inorder(tr)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("in-order keys not sorted")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatal("duplicate key stored")
		}
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
		if int(size(tr.root)) != len(oracle) {
			return false
		}
		for _, k := range inorder(tr) {
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

// TestQuickOrderInvariant: the in-order walk is always sorted and duplicate-free
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
		keys := inorder(tr)
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return len(keys) == int(size(tr.root))
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
