//go:build race

package engine

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop pooled objects at random, so allocation bounds do not hold there.
const raceEnabled = true
