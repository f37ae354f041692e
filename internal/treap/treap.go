// Package treap implements randomized search trees (Seidel & Aragon,
// Algorithmica 1996) keyed by int32 vertex identifiers.
//
// SNAP stores the adjacency lists of high-degree vertices in treaps so
// that dynamic graphs with skewed degree distributions support fast
// insertion, deletion, and membership tests.
package treap

import "math/rand"

// node is a treap node. Priorities are drawn from a deterministic
// per-treap PRNG so tests are reproducible.
type node struct {
	key         int32
	priority    uint32
	size        int32 // subtree size, so Len is O(1)
	left, right *node
}

// Treap is an ordered set of int32 keys with expected O(log n) update
// and query cost. The zero value is not ready for use; call New.
type Treap struct {
	root *node
	rng  *rand.Rand
}

// New returns an empty treap whose priorities are derived from seed.
func New(seed int64) *Treap {
	return &Treap{rng: rand.New(rand.NewSource(seed))}
}

func size(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

func update(n *node) *node {
	if n != nil {
		n.size = 1 + size(n.left) + size(n.right)
	}
	return n
}

// split partitions n into (< key, >= key).
func split(n *node, key int32) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.key < key {
		l2, r2 := split(n.right, key)
		n.right = l2
		return update(n), r2
	}
	l2, r2 := split(n.left, key)
	n.left = r2
	return l2, update(n)
}

// join concatenates l and r assuming every key in l is less than every
// key in r.
func join(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.priority > r.priority {
		l.right = join(l.right, r)
		return update(l)
	}
	r.left = join(l, r.left)
	return update(r)
}

// Insert adds key to the set. It reports whether the key was newly
// inserted (false if it was already present).
func (t *Treap) Insert(key int32) bool {
	if t.contains(t.root, key) {
		return false
	}
	nn := &node{key: key, priority: t.rng.Uint32(), size: 1}
	l, r := split(t.root, key)
	t.root = join(join(l, nn), r)
	return true
}

// Delete removes key from the set, reporting whether it was present.
func (t *Treap) Delete(key int32) bool {
	var deleted bool
	t.root = deleteRec(t.root, key, &deleted)
	return deleted
}

func deleteRec(n *node, key int32, deleted *bool) *node {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = deleteRec(n.left, key, deleted)
	case key > n.key:
		n.right = deleteRec(n.right, key, deleted)
	default:
		*deleted = true
		return join(n.left, n.right)
	}
	return update(n)
}

// Contains reports whether key is in the set.
func (t *Treap) Contains(key int32) bool {
	return t.contains(t.root, key)
}

func (t *Treap) contains(n *node, key int32) bool {
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return true
		}
	}
	return false
}

// FromKeys builds a treap from keys (duplicates collapse).
func FromKeys(seed int64, keys []int32) *Treap {
	t := New(seed)
	for _, k := range keys {
		t.Insert(k)
	}
	return t
}
