package core

// constants are immutable: no finding.
const maxRuns = 64

// state on a struct is per-run by construction.
type run struct {
	counter int
}

func (r *run) bump() { r.counter++ }

//simlint:allow sharedstate(immutable lookup table; written only at init)
var names = []string{"a", "b"}

func name(i int) string { return names[i%len(names)] }
