// Package planted consumes the virtual clock and still reads the wall
// clock: corona-lint's wallclock analyzer must flag it.
package planted

import (
	"time"

	"corona/internal/clock"
)

// Stamp returns the clock's time and, wrongly, the wall clock's.
func Stamp(c clock.Clock) (time.Time, time.Time) {
	return c.Now(), time.Now()
}
