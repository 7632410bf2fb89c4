package testutil

import (
	"runtime"
	"testing"
	"time"
)

// WaitGoroutines fails tb unless runtime.NumGoroutine() falls back to
// base, the count taken before the code under test started any
// goroutines, within a second. It is the leak check for operators such
// as the parallel exchange, whose Close must stop every worker it
// started.
func WaitGoroutines(tb testing.TB, base int) {
	tb.Helper()
	deadline := time.Now().Add(time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			tb.Fatalf("%d goroutines still running a second later, %d before", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}
