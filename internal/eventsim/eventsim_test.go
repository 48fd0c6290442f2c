package eventsim

import (
	"slices"
	"testing"
	"time"

	"corona/internal/clock"
)

func TestEventsFireInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	s.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	s.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	s.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var at time.Time
	s.AfterFunc(90*time.Second, func() { at = s.Now() })
	s.RunFor(time.Hour)
	if want := Epoch.Add(90 * time.Second); !at.Equal(want) {
		t.Fatalf("callback saw time %v, want %v", at, want)
	}
	if want := Epoch.Add(time.Hour); !s.Now().Equal(want) {
		t.Fatalf("clock finished at %v, want deadline %v", s.Now(), want)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New(1)
	fired := 0
	s.AfterFunc(time.Minute, func() { fired++ })
	s.AfterFunc(time.Hour, func() { fired++ })
	s.RunFor(10 * time.Minute)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.RunFor(time.Hour)
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.RunFor(time.Minute)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.AfterFunc(time.Second, func() {})
	s.RunFor(time.Minute)
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestEventsScheduledFromEvents(t *testing.T) {
	s := New(1)
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, s.Elapsed())
		if len(times) < 5 {
			s.AfterFunc(time.Minute, tick)
		}
	}
	s.AfterFunc(time.Minute, tick)
	s.RunFor(time.Hour)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, at := range times {
		if want := time.Duration(i+1) * time.Minute; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestPastEventsFireNow(t *testing.T) {
	s := New(1)
	s.RunFor(time.Hour)
	var at time.Time
	s.At(Epoch, func() { at = s.Now() }) // in the past
	s.RunFor(time.Second)
	if !at.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("past event fired at %v, want current instant", at)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := New(42).RNG("polling")
	b := New(42).RNG("polling")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,name) produced different streams")
		}
	}
	c := New(42).RNG("workload")
	d := New(43).RNG("polling")
	matchC, matchD := 0, 0
	e := New(42).RNG("polling")
	for i := 0; i < 100; i++ {
		v := e.Uint64()
		if v == c.Uint64() {
			matchC++
		}
		if v == d.Uint64() {
			matchD++
		}
	}
	if matchC > 2 || matchD > 2 {
		t.Fatalf("streams not independent: matchC=%d matchD=%d", matchC, matchD)
	}
}

func TestDrainPanicsOnRunaway(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.AfterFunc(time.Second, loop) }
	s.AfterFunc(time.Second, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain did not panic on unbounded event loop")
		}
	}()
	s.Drain(1000)
}

func TestProcessedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	s.RunFor(time.Minute)
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// TestResetOrdersLikeAfterFunc pins Reset's place in the event order: a
// timer re-armed for an instant fires after every event already
// scheduled for it and before every one scheduled later, exactly where a
// fresh AfterFunc would, whether the timer was pending, stopped or had
// fired.
func TestResetOrdersLikeAfterFunc(t *testing.T) {
	s := New(1)
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	pending := s.AfterFunc(time.Hour, note("pending"))
	stopped := s.AfterFunc(time.Hour, note("stopped"))
	fired := s.AfterFunc(0, note("fired"))
	s.RunFor(0)
	stopped.Stop()
	s.AfterFunc(time.Second, note("first"))
	if !pending.Reset(time.Second) {
		t.Error("Reset of a pending timer reported it idle")
	}
	if stopped.Reset(time.Second) || fired.Reset(time.Second) {
		t.Error("Reset of a stopped or fired timer reported it pending")
	}
	s.AfterFunc(time.Second, note("last"))
	s.RunFor(2 * time.Hour)
	want := []string{"fired", "first", "pending", "stopped", "fired", "last"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired in order %v, want %v", order, want)
	}
}

// TestResetRunsAgainFromItsCallback re-arms a timer from its own
// callback, the way a poll loop does, once per period.
func TestResetRunsAgainFromItsCallback(t *testing.T) {
	s := New(1)
	var at []time.Duration
	var tm clock.Timer
	tm = s.AfterFunc(time.Second, func() {
		at = append(at, s.Elapsed())
		if len(at) < 3 {
			tm.Reset(2 * time.Second)
		}
	})
	s.RunFor(time.Minute)
	if want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}; !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still queued", s.Pending())
	}
}
