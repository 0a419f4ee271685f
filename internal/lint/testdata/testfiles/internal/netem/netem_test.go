// In-package test file: wall-clock reads, map ranges and float
// equality are exempt here, but global rand and ownership stay
// enforced.
package netem

import (
	"math/rand" //WANT noglobalrand
	"time"
)

func wallClockIsFineInTests() int64 {
	return time.Now().UnixNano()
}

func mapOrderIsFineInTests(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func floatEqIsFineInTests(a, b float64) bool {
	return a == b
}

func seededQuickCheck() int {
	return rand.New(rand.NewSource(1)).Intn(10)
}

func useAfterPutStillChecked(pool *PacketPool) int64 {
	p := pool.Get()
	pool.Put(p)
	return p.Size //WANT packetown
}
