// A package with only _test.go files: go list reports no GoFiles, and
// the test files are still linted.
package lb

import "math/rand" //WANT noglobalrand

func shuffledInTests() int {
	return rand.New(rand.NewSource(1)).Intn(10)
}
