package cache

import (
	"fmt"
	"slices"
	"testing"

	"hotleakage/internal/stats"
)

// refLine is one resident line of the reference model.
type refLine struct {
	la    uint64 // line address
	dirty bool
}

// refCache is a brute-force set-associative LRU reference model: per set, a
// slice of resident lines ordered most-recently-used first. It keeps its
// own Stats and DynJ, accumulated in the order Cache.Access does, and logs
// the line addresses it writes back.
type refCache struct {
	sets      [][]refLine
	assoc     int
	lineShift uint
	setMask   uint64
	e         *Cache // energy constants only

	stats Stats
	dynJ  float64
	wbs   []uint64
}

func newRef(cfg Config, e *Cache) *refCache {
	r := &refCache{
		sets:  make([][]refLine, cfg.Sets()),
		assoc: cfg.Assoc,
		e:     e,
	}
	for 1<<r.lineShift < cfg.LineBytes {
		r.lineShift++
	}
	r.setMask = uint64(cfg.Sets() - 1)
	return r
}

// access touches addr and reports whether it hit.
func (r *refCache) access(addr uint64, write bool) bool {
	r.stats.Accesses++
	la := addr >> r.lineShift
	set := la & r.setMask
	s := r.sets[set]
	for i, l := range s {
		if l.la == la {
			// Move to front.
			copy(s[1:i+1], s[:i])
			l.dirty = l.dirty || write
			s[0] = l
			r.stats.Hits++
			if write {
				r.dynJ += r.e.Energy.WriteHit
			} else {
				r.dynJ += r.e.Energy.ReadHit
			}
			return true
		}
	}
	r.stats.Misses++
	r.dynJ += r.e.Energy.TagProbe
	// Miss: evict the least recently used line once the set is full,
	// then insert at the front.
	if len(s) == r.assoc {
		if v := s[len(s)-1]; v.dirty {
			r.writeback(v.la)
		}
		s = s[:len(s)-1]
	}
	r.sets[set] = append([]refLine{{la: la, dirty: write}}, s...)
	r.stats.Fills++
	r.dynJ += r.e.Energy.LineFill
	return false
}

func (r *refCache) writeback(la uint64) {
	r.stats.Writebacks++
	r.dynJ += r.e.Energy.LineRead
	r.wbs = append(r.wbs, la<<r.lineShift)
}

// flush writes back every dirty line and empties every set.
func (r *refCache) flush() {
	for set, s := range r.sets {
		for _, l := range s {
			if l.dirty {
				r.writeback(l.la)
			}
		}
		r.sets[set] = nil
	}
}

// TestCacheMatchesReferenceModel drives Cache and the brute-force MRU-list
// model with the same mixed read/write stream, with a Flush every so often,
// across associativities and set counts. Every access must agree on hit or
// miss; at the end and after every flush, Stats (writebacks and fills
// included), DynJ bit for bit and the written-back line addresses must
// agree too. A flush writes back in set-then-way order, which the model
// does not know, so flush writebacks compare as sets.
func TestCacheMatchesReferenceModel(t *testing.T) {
	type geom struct{ assoc, sets int }
	var geoms []geom
	for _, a := range []int{1, 2, 4, 8, 16} {
		for _, s := range []int{8, 32, 128} {
			geoms = append(geoms, geom{a, s})
		}
	}
	geoms = append(geoms, geom{maxAssoc, 8})
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("assoc%d-sets%d", g.assoc, g.sets), func(t *testing.T) {
			const line = 64
			cfg := Config{Name: "ref", SizeBytes: line * g.assoc * g.sets, LineBytes: line, Assoc: g.assoc, HitLatency: 1}
			next := new(addrLog)
			c := MustNew(p70(), cfg, next)
			ref := newRef(cfg, c)
			rng := stats.NewRNG(uint64(99 + gi))

			// A footprint of about twice the cache, with a hot subset a
			// quarter its size, so hits, misses and dirty evictions all
			// occur at every associativity.
			lines := 2 * g.assoc * g.sets
			hot := max(1, lines/8)
			check := func(when string) {
				t.Helper()
				if c.Stats != ref.stats {
					t.Fatalf("%s: stats %+v, reference %+v", when, c.Stats, ref.stats)
				}
				if c.DynJ != ref.dynJ {
					t.Fatalf("%s: DynJ %v, reference %v", when, c.DynJ, ref.dynJ)
				}
				if !slices.Equal(next.writes, ref.wbs) {
					t.Fatalf("%s: writebacks %#x, reference %#x", when, next.writes, ref.wbs)
				}
			}
			const n = 40_000
			for i := 0; i < n; i++ {
				if i%10_000 == 9_999 {
					fromC, fromR := len(next.writes), len(ref.wbs)
					c.Flush(uint64(i))
					ref.flush()
					slices.Sort(next.writes[fromC:])
					slices.Sort(ref.wbs[fromR:])
					check(fmt.Sprintf("flush at %d", i))
					continue
				}
				addr := uint64(rng.Intn(lines))*line + uint64(rng.Intn(line))
				if rng.Bool(0.4) {
					addr = uint64(rng.Intn(hot)) * line
				}
				write := rng.Bool(0.3)
				wasHit := c.Contains(addr)
				c.Access(addr, write, uint64(i))
				if refHit := ref.access(addr, write); wasHit != refHit {
					t.Fatalf("access %d (addr %#x, write %v): cache hit=%v, reference hit=%v", i, addr, write, wasHit, refHit)
				}
			}
			check("end")
			if c.Stats.Hits == 0 || c.Stats.Misses == 0 || c.Stats.Writebacks == 0 {
				t.Fatalf("degenerate stream: %+v", c.Stats)
			}
		})
	}
}
