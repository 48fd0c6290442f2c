// Package clock abstracts time so that the Corona protocol stack runs
// unmodified under both the discrete-event simulator (virtual time) and a
// live deployment (wall-clock time).
package clock

import "time"

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the callback was
	// prevented from running (false if it already ran or was stopped).
	Stop() bool
	// Reset schedules the timer's callback to run once more, d from now,
	// whether it is pending, stopped or has already run; a pending run is
	// moved, not added to. It reports whether a run was pending. A
	// periodic loop re-arms its one timer this way instead of allocating
	// a new one per period.
	Reset(d time.Duration) bool
}

// Clock supplies the current time and one-shot timers. Implementations:
// eventsim.Sim (virtual time) and clock.Real (wall time).
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules f to run after d. f runs on the clock's
	// dispatch context: the simulator's event loop, or a goroutine for
	// the real clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is a Clock backed by the time package.
type Real struct{}

// Now returns the wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc schedules f on a new goroutine after d.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}
