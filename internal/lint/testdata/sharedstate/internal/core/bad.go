// Package core demonstrates the sharedstate rule: package-level
// mutable state in a simulation package breaks per-run isolation.
package core

var counter int //WANT sharedstate

var cache = map[string]int{} //WANT sharedstate

var hi, lo int //WANT sharedstate sharedstate

func bump() {
	counter++
	cache["x"] = counter
	hi, lo = lo, hi
}
