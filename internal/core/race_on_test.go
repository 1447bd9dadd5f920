//go:build race

package core

// raceEnabled reports a -race build. The race runtime makes sync.Pool
// drop a random share of Puts, so the pooled Detector paths refill
// their scratch on some calls and AllocsPerRun cannot read 0 there.
const raceEnabled = true
