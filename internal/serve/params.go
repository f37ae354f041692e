package serve

import (
	"fmt"
	"strconv"
	"sync"
)

// Zero-allocation request plumbing: query-string parsing, canonical
// cache-key assembly, and append-style JSON building, all writing into
// a pooled per-request scratch. The serving hot path — a result-cache
// hit — must not allocate, so nothing here may escape to the heap:
// parsed values are substrings of the raw query or ints, list params
// land in a reused []int32, and keys/bodies grow pooled byte buffers.

// params holds one request's parsed query parameters. String fields
// alias the raw query; slice fields alias the scratch's ids array.
type params struct {
	src      int64   // src= vertex; -1 when absent
	dst      []int32 // dst= comma list (may be empty)
	vs       []int32 // v= comma list (may be empty)
	maxDepth int64   // maxdepth= level bound; -1 when absent (unlimited)
	k        int64   // k= top-k bound; -1 when absent
	kind     string  // kind= centrality selector
	algo     string  // algo= community selector
}

// scratch is the pooled per-request workspace: parsed id lists, the
// canonical cache key, and the response body under construction.
type scratch struct {
	p    params
	ids  []int32 // backing for params.dst and params.vs
	key  []byte
	body []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// parseParams parses a raw query string ("src=3&dst=1,2&maxdepth=4")
// into sc.p without allocating. The grammar is deliberately narrow —
// plain decimal values, comma lists, bare identifiers over the graph
// name alphabet (validName) — so no URL unescaping is needed; a '%' or
// '+' in a value is a parse error.
func parseParams(raw string, sc *scratch) error {
	p := &sc.p
	*p = params{src: -1, maxDepth: -1, k: -1}
	sc.ids = sc.ids[:0]
	for len(raw) > 0 {
		var kv string
		if i := indexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			kv, raw = raw, ""
		}
		if kv == "" {
			continue
		}
		eq := indexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("parameter %q missing '='", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "src":
			v, err := parseUint31(val)
			if err != nil {
				return fmt.Errorf("src: %w", err)
			}
			p.src = v
		case "dst":
			lo := len(sc.ids)
			if err := parseIDList(val, sc); err != nil {
				return fmt.Errorf("dst: %w", err)
			}
			p.dst = sc.ids[lo:len(sc.ids):len(sc.ids)]
		case "v":
			lo := len(sc.ids)
			if err := parseIDList(val, sc); err != nil {
				return fmt.Errorf("v: %w", err)
			}
			p.vs = sc.ids[lo:len(sc.ids):len(sc.ids)]
		case "maxdepth":
			v, err := parseUint31(val)
			if err != nil {
				return fmt.Errorf("maxdepth: %w", err)
			}
			p.maxDepth = v
		case "k":
			v, err := parseUint31(val)
			if err != nil {
				return fmt.Errorf("k: %w", err)
			}
			p.k = v
		case "kind", "algo":
			if val != "" && !validName(val) {
				return fmt.Errorf("%s: %q is not a bare identifier", key, val)
			}
			if key == "kind" {
				p.kind = val
			} else {
				p.algo = val
			}
		default:
			return fmt.Errorf("unknown parameter %q", key)
		}
	}
	return nil
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// parseUint31 parses a non-negative decimal that fits in an int32.
func parseUint31(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	var v int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, fmt.Errorf("invalid number %q", s)
		}
		v = v*10 + int64(d)
		if v > 1<<31-1 {
			return 0, fmt.Errorf("value %q out of range", s)
		}
	}
	return v, nil
}

func parseIDList(s string, sc *scratch) error {
	for len(s) > 0 {
		var tok string
		if i := indexByte(s, ','); i >= 0 {
			tok, s = s[:i], s[i+1:]
		} else {
			tok, s = s, ""
		}
		v, err := parseUint31(tok)
		if err != nil {
			return err
		}
		if len(sc.ids) >= maxListIDs {
			return fmt.Errorf("more than %d ids", maxListIDs)
		}
		sc.ids = append(sc.ids, int32(v))
	}
	return nil
}

// maxListIDs bounds dst=/v= list sizes: response bodies stay small
// enough to cache and a single request can't demand O(n) JSON.
const maxListIDs = 4096

// appendKey assembles the canonical cache key for (graph, epoch, op,
// params). The key embeds the epoch sequence number, which is the
// entire invalidation story: a Commit publishes a new epoch pointer,
// new requests key under the new seq, and stale entries simply stop
// being referenced and age out of the LRU. Parameters are emitted in a
// fixed order so textually different but semantically identical query
// strings share an entry; id lists keep request order because the
// response echoes it (dst=1,2 and dst=2,1 are different responses).
func appendKey(b []byte, name string, seq uint64, op string, p *params) []byte {
	b = append(b, name...)
	b = append(b, 0)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, 0)
	b = append(b, op...)
	b = append(b, 's')
	b = strconv.AppendInt(b, p.src, 10)
	b = append(b, 'm')
	b = strconv.AppendInt(b, p.maxDepth, 10)
	b = append(b, 'k')
	b = strconv.AppendInt(b, p.k, 10)
	b = append(b, 'K')
	b = append(b, p.kind...)
	b = append(b, 0, 'A')
	b = append(b, p.algo...)
	b = append(b, 0, 'd')
	for _, v := range p.dst {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	b = append(b, 'v')
	for _, v := range p.vs {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return b
}

// JSON building: append-style helpers over the scratch body buffer.
// Graph names are restricted at registration (see Server.register) so
// no string escaping is ever required.

func appendJSONHead(b []byte, name string, seq uint64, op string) []byte {
	b = append(b, `{"graph":"`...)
	b = append(b, name...)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"op":"`...)
	b = append(b, op...)
	b = append(b, '"')
	return b
}

func appendJSONKeyInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendJSONFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendJSONKeyFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendJSONKeyBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

func appendJSONKeyIntList(b []byte, key string, vs []int32) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":[`...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendJSONKeyFloatList(b []byte, key string, vs []float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":[`...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}
