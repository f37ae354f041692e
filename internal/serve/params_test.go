package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseParams: the query parser never panics, and every query it
// accepts means the same to net/url — url.ParseQuery succeeds, and the
// last value it reads for each key is the value the parser kept.
func FuzzParseParams(f *testing.F) {
	for _, seed := range []string{
		"src=3&dst=1,2,9&maxdepth=4",
		"kind=pagerank&k=10",
		"algo=louvain&v=1,2,3",
		"src=1&src=2&dst=1&dst=2,3,",
		"&&src=007&dst=",
		"kind=pa%67erank",
		"algo=a+b",
		"kind=a;b",
		"dst=4294967296",
		"v=1,,2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var sc scratch
		if parseParams(raw, &sc) != nil {
			return
		}
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("parser accepts %q, net/url rejects it: %v", raw, err)
		}
		p := &sc.p
		kept := map[string]string{
			"src": fmt.Sprint(p.src), "maxdepth": fmt.Sprint(p.maxDepth), "k": fmt.Sprint(p.k),
			"dst": fmt.Sprint(p.dst), "v": fmt.Sprint(p.vs), "kind": p.kind, "algo": p.algo,
		}
		for key, vs := range vals {
			got, ok := kept[key]
			if !ok {
				t.Fatalf("parser accepts unknown key %q in %q", key, raw)
			}
			want := vs[len(vs)-1]
			if key != "kind" && key != "algo" {
				want = decimals(t, want, key == "dst" || key == "v")
			}
			if got != want {
				t.Fatalf("%q: parser keeps %s=%s, net/url reads %s", raw, key, got, want)
			}
		}
	})
}

// decimals re-renders net/url's text of a number, or of a comma list,
// the way fmt prints the parser's int64 or []int32.
func decimals(t *testing.T, s string, list bool) string {
	var ids []int64
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' }) {
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			t.Fatalf("net/url reads %q, not decimals", s)
		}
		ids = append(ids, v)
	}
	if list {
		return fmt.Sprint(ids)
	}
	if len(ids) != 1 {
		t.Fatalf("net/url reads %q, not one number", s)
	}
	return fmt.Sprint(ids[0])
}
