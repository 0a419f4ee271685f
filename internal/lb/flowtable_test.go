package lb

import (
	"slices"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// find returns the flow's row without inserting or stamping, nil when
// the flow is not in the table.
func (t *FlowTable[F]) find(id netem.FlowID) *F {
	if i, ok := t.index[id]; ok {
		return &t.rows[i].val
	}
	return nil
}

// TestFlowTableMatchesModel drives seeded random get / FIN-remove /
// evict sequences through a FlowTable and through the obvious reference
// — a plain map of last-seen stamps — and requires the same membership,
// the same stamps and the same eviction set on every sweep. A second,
// identically driven table must visit its rows in the identical order:
// the order is a function of the insert/remove history alone (it is no
// longer sorted; that it is reproducible is what the runs rely on).
// Sweeps must not allocate.
func TestFlowTableMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := eventsim.NewRNG(seed)
		a, b := NewFlowTable[netem.FlowID](), NewFlowTable[netem.FlowID]()
		model := map[netem.FlowID]units.Time{}
		const minIdle = 40 * units.Microsecond
		var now units.Time

		for step := 0; step < 4000; step++ {
			now += units.Time(rng.Intn(3)) * units.Microsecond
			id := netem.FlowID{Src: rng.Intn(8), Dst: rng.Intn(8), Port: rng.Intn(4)}
			switch op := rng.Intn(20); {
			case op < 14: // a packet of the flow
				want, known := model[id]
				for _, tab := range []*FlowTable[netem.FlowID]{&a, &b} {
					f, prev, fresh := tab.Get(&id, now)
					if fresh == known || (known && prev != want) {
						t.Fatalf("seed %d step %d: Get(%v) = prev %v fresh %v, model has %v (known %v)",
							seed, step, id, prev, fresh, want, known)
					}
					if fresh {
						*f = id
					} else if *f != id {
						t.Fatalf("seed %d step %d: row of %v holds %v", seed, step, id, *f)
					}
				}
				model[id] = now
			case op < 18: // its FIN
				a.Remove(&id)
				b.Remove(&id)
				delete(model, id)
			default: // a sweep
				var gone [2][]netem.FlowID
				for k, tab := range []*FlowTable[netem.FlowID]{&a, &b} {
					var visited int
					size := tab.Len()
					tab.Evict(now, func(f *netem.FlowID, idle units.Time) bool {
						visited++
						if idle != now-model[*f] {
							t.Fatalf("seed %d step %d: %v idle %v, model says %v", seed, step, *f, idle, now-model[*f])
						}
						if idle >= minIdle {
							gone[k] = append(gone[k], *f)
							return true
						}
						return false
					})
					if visited != size {
						t.Fatalf("seed %d step %d: sweep visited %d of %d rows", seed, step, visited, size)
					}
				}
				if !slices.Equal(gone[0], gone[1]) {
					t.Fatalf("seed %d step %d: identically driven tables evicted in different orders:\n%v\n%v",
						seed, step, gone[0], gone[1])
				}
				for _, id := range gone[0] {
					if seen, ok := model[id]; !ok || now-seen < minIdle {
						t.Fatalf("seed %d step %d: evicted %v, which the model keeps", seed, step, id)
					}
					delete(model, id)
				}
				for id, seen := range model {
					if now-seen >= minIdle {
						t.Fatalf("seed %d step %d: sweep kept %v, idle %v", seed, step, id, now-seen)
					}
				}
			}
			if a.Len() != len(model) || b.Len() != len(model) {
				t.Fatalf("seed %d step %d: sizes %d and %d, model %d", seed, step, a.Len(), b.Len(), len(model))
			}
		}
		// What survives is the model's membership (sizes are equal, and
		// every model entry is found).
		for id := range model {
			if f := a.find(id); f == nil || *f != id {
				t.Fatalf("seed %d: %v is in the model but not in the table", seed, id)
			}
		}

		// A sweep — evicting or not — allocates nothing.
		for i := 0; i < 64; i++ {
			a.Get(&netem.FlowID{Src: 100 + i}, now)
		}
		keep := func(*netem.FlowID, units.Time) bool { return false }
		drop := func(f *netem.FlowID, _ units.Time) bool { return f.Src >= 100 }
		if n := testing.AllocsPerRun(10, func() { a.Evict(now, keep); a.Evict(now, drop) }); n != 0 {
			t.Fatalf("seed %d: a sweep allocated %v times", seed, n)
		}
	}
}
