// Package testutil carries the shared -seed flag of the repo's
// randomized tests. Every test binary that imports it accepts
//
//	go test -run TestName ./internal/<pkg>/ -seed N
//
// so a CI failure can be replayed from the seed its log prints. The flag
// defaults to 0, meaning "use the test's own fixed default seed" — runs
// stay deterministic unless a seed is given explicitly. It also holds
// fixtures several packages' tests share.
package testutil

import (
	"flag"
	"fmt"
	"testing"
)

var seedFlag = flag.Int64("seed", 0, "override the seed of randomized tests (0 = per-test default)")

// Seed returns the seed a randomized test should use: the -seed flag when
// set, otherwise def. It logs the choice so every run's log carries the
// one-line reproduction command.
func Seed(tb testing.TB, def int64) int64 {
	tb.Helper()
	s := def
	if *seedFlag != 0 {
		s = *seedFlag
	}
	tb.Logf("seed %d (replay: go test -run '^%s$' -seed %d)", s, tb.Name(), s)
	return s
}

// ReproLine formats the one-line reproduction command for a failure under
// the given seed, for embedding in t.Errorf messages.
func ReproLine(tb testing.TB, seed int64) string {
	return fmt.Sprintf("go test -run '^%s$' -seed %d", tb.Name(), seed)
}
