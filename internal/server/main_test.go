package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// lingeringFrames are the goroutines a test leaves behind when it does
// not close what it opened: a subscription's pump (core) and a webhook
// delivery loop (this package). Server.Close and DB.Close stop both.
var lingeringFrames = []string{
	"videodb/internal/core.(*Subscription).pump(",
	"videodb/internal/server.(*Server).deliverWebhook(",
}

// TestMain fails the package when its tests leave a subscription pump or
// a webhook delivery running, after a short settle for goroutines that
// are already on their way out.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := lingering(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running after the tests:\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// lingering waits up to settle for every lingering frame to end, and
// returns the stacks of the goroutines still running one ("" when none).
func lingering(settle time.Duration) string {
	deadline := time.Now().Add(settle)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var found []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			for _, f := range lingeringFrames {
				if strings.Contains(g, f) {
					found = append(found, g)
					break
				}
			}
		}
		if len(found) == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return strings.Join(found, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
