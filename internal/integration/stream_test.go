package integration

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"videodb/internal/server"
	"videodb/internal/video"
)

// TestStreamingSubscriptionE2E is the live-subscription demo scenario:
// a synthetic broadcast is replayed into a running HTTP server by the
// actual `videogen -stream` binary while an SSE subscriber holds a
// standing query, and at quiescence the subscriber's accumulated deltas
// must equal the one-shot answer for the same goal exactly (the
// differential oracle). It runs on the durable segment backend, so it
// exercises the changelog → pump → SSE path over the on-disk layout.
func TestStreamingSubscriptionE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs videogen")
	}
	root, err := filepath.Abs(filepath.FromSlash("../.."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "videogen")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/videogen")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building videogen: %v\n%s", err, out)
	}

	dir := t.TempDir()
	db := openTestDB(t, dir)
	defer db.Close()
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	const goal = "?- appears_with(X, Y, S)"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/subscribe?goal="+url.QueryEscape(goal), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d", resp.StatusCode)
	}

	// Reader goroutine: accumulate the answer set, publish each new
	// generation.
	type frame struct {
		Kind string              `json:"kind"`
		Sign int                 `json:"sign"`
		Row  []json.RawMessage   `json:"row"`
		Rows [][]json.RawMessage `json:"rows"`
	}
	key := func(row []json.RawMessage) string {
		parts := make([]string, len(row))
		for i, r := range row {
			parts[i] = string(r)
		}
		return strings.Join(parts, "\x1f")
	}
	type gen struct {
		rows map[string]bool
		err  error
	}
	gens := make(chan gen, 64)
	go func() {
		defer close(gens)
		br := bufio.NewReader(resp.Body)
		rows := make(map[string]bool)
		for {
			ev, err := server.ReadSSE(br)
			if err != nil {
				gens <- gen{err: err}
				return
			}
			if ev.Event == "close" {
				gens <- gen{err: fmt.Errorf("subscription closed: %s", ev.Data)}
				return
			}
			var f frame
			if err := json.Unmarshal([]byte(ev.Data), &f); err != nil {
				gens <- gen{err: err}
				return
			}
			switch f.Kind {
			case "snapshot":
				rows = make(map[string]bool, len(f.Rows))
				for _, r := range f.Rows {
					rows[key(r)] = true
				}
			case "delta":
				if f.Sign > 0 {
					rows[key(f.Row)] = true
				} else {
					delete(rows, key(f.Row))
				}
			}
			snap := make(map[string]bool, len(rows))
			for k := range rows {
				snap[k] = true
			}
			gens <- gen{rows: snap}
		}
	}()

	// Replay the broadcast with the real binary, paced so ingest overlaps
	// live delivery rather than completing before the first flush.
	replay := exec.Command(bin,
		"-stream", "-rate", "200", "-url", ts.URL,
		"-seed", "21", "-duration", "120", "-objects", "6", "-shot", "6", "-presence", "0.3")
	replay.Dir = root
	if out, err := replay.CombinedOutput(); err != nil {
		t.Fatalf("videogen -stream: %v\n%s", err, out)
	}

	// The oracle: what the server itself answers once all batches landed.
	want := make(map[string]bool)
	{
		rs, err := db.Query(goal)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rs.Rows {
			raw := make([]json.RawMessage, len(row))
			for i, v := range row {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				raw[i] = b
			}
			want[key(raw)] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("replay produced no appears_with facts; widen the sequence")
	}

	// The generated corpus must actually exercise the generator: the same
	// config rendered locally has one prologue + one batch per shot.
	seq := video.Generate(video.GenConfig{
		Seed: 21, DurationSec: 120, NumObjects: 6, AvgShotSec: 6, Presence: 0.3,
	})
	if batches := video.StreamBatches(seq); len(batches) != len(seq.Shots)+1 {
		t.Fatalf("StreamBatches = %d batches for %d shots", len(batches), len(seq.Shots))
	}

	same := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	deadline := time.After(30 * time.Second)
	current := make(map[string]bool)
	for !same(current, want) {
		select {
		case g, ok := <-gens:
			if !ok {
				t.Fatalf("stream ended before convergence: %d/%d rows", len(current), len(want))
			}
			if g.err != nil {
				t.Fatal(g.err)
			}
			current = g.rows
		case <-deadline:
			t.Fatalf("subscriber never converged: %d/%d rows", len(current), len(want))
		}
	}

	// Below the rate limit nothing may be dropped and no resync snapshots
	// should have been needed.
	totals := db.SubscriptionStats()
	if totals.Dropped != 0 {
		t.Errorf("dropped %d deltas during a keep-up replay", totals.Dropped)
	}
	if totals.DeltasPlus == 0 {
		t.Error("no +deltas recorded; subscriber saw only snapshots")
	}
}
