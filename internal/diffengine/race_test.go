//go:build race

package diffengine

func init() { raceEnabled = true }
