// Package clean consumes the virtual clock correctly: corona-lint finds
// nothing here.
package clean

import (
	"time"

	"corona/internal/clock"
)

// Stamp returns the clock's time.
func Stamp(c clock.Clock) time.Time {
	return c.Now()
}
