// Package tiny is a fixture for the loader's own tests.
package tiny

// Double returns twice x.
func Double(x int) int { return 2 * x }
