package analysis_test

import (
	"testing"

	"corona/internal/analysis"
	"corona/internal/analysis/analysistest"
)

// TestMapOrder pins the deterministic-iteration analyzer against the
// pre-PR-7 KnownNodes shape (red) and the collect-then-sort fix (green),
// float sums taken in map order (red) against integer sums and sums over
// a sorted snapshot (green), and checks the package gating: the same
// shapes pass clean in a non-deterministic package.
func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder,
		"corona/internal/pastry",
		"corona/internal/webgateway",
	)
}

// TestLockBlock pins the no-blocking-under-lock analyzer against the
// pre-PR-6 fanOut-under-RLock shape (red) and the collect-then-send fix
// (green), plus channel sends, net.Conn I/O, and WAL/fsync under lock.
func TestLockBlock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockBlock, "lockblock")
}

// TestWireSym pins the wire-symmetry analyzer: asymmetric encoder/
// decoder pairs, registration without a binary form, and missing
// truncation/fuzz coverage.
func TestWireSym(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WireSym, "wiresym")
}

// TestWallClock pins the no-wall-clock analyzer across the always-
// virtual packages, an internal/clock consumer, and the exempt
// composition root.
func TestWallClock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WallClock,
		"corona/internal/chaos",
		"corona/internal/simnet",
		"corona/internal/clockconsumer",
		"corona",
	)
}
