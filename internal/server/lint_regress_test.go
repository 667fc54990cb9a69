package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"videodb/internal/core"
)

// Regression tests for the two genuine findings videolint's bring-up
// surfaced in this package: the Prometheus exposition and the /v1/stats
// engine totals had diverged (metriccheck), and the webhook pump waited on context.Background()
// so Server.Close could not unblock it (ctxcheck).

// TestStatsTotalsCoverWireCounters pins the parity contract: every
// wire-level counter the Prometheus exposition reports must also appear
// in the /v1/stats engine totals with the same value. Before the fix,
// requests, the three sub-wire counters, and both webhook counters were
// missing from totals(), and the wire counters were exposed nowhere.
func TestStatsTotalsCoverWireCounters(t *testing.T) {
	var m metrics
	m.requests.Add(7)
	m.subSnapshots.Add(3)
	m.subDeltasPlus.Add(5)
	m.subDeltasMinus.Add(2)
	m.subWebhookRetries.Add(11)
	m.subWebhookDropped.Add(1)

	tot := m.totals()
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"httpRequests", tot.Requests, 7},
		{"subWireSnapshots", tot.SubWireSnapshots, 3},
		{"subWireDeltasPlus", tot.SubWireDeltasPlus, 5},
		{"subWireDeltasMinus", tot.SubWireDeltasMinus, 2},
		{"subWebhookRetries", tot.SubWebhookRetries, 11},
		{"subWebhookDropped", tot.SubWebhookDropped, 1},
	} {
		if c.got != c.want {
			t.Errorf("totals().%s = %d, want %d (/v1/stats diverged from Prometheus)", c.name, c.got, c.want)
		}
	}

	// The same counters must be visible in the exposition, so neither
	// surface can silently drop what the other reports.
	var b bytes.Buffer
	m.writeProm(&b, time.Second)
	body := b.String()
	for _, want := range []string{
		"videodb_http_requests_total 7",
		`videodb_sub_wire_events_total{kind="snapshot"} 3`,
		`videodb_sub_wire_events_total{kind="delta_plus"} 5`,
		`videodb_sub_wire_events_total{kind="delta_minus"} 2`,
	} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestCloseCancelsLifecycleContext reconstructs the webhook-pump hang:
// deliverWebhook used to block in sub.Next(context.Background()), so a
// pump whose subscription was slow to notice closure could outlive the
// server. Waiting on the lifecycle context instead, Close must unblock
// a Next call even when nothing ever closes the subscription itself.
func TestCloseCancelsLifecycleContext(t *testing.T) {
	db := core.New()
	srv := New(db)
	if srv.lifeCtx == nil {
		t.Fatal("server has no lifecycle context")
	}
	if srv.lifeCtx.Err() != nil {
		t.Fatalf("lifecycle context dead at birth: %v", srv.lifeCtx.Err())
	}

	// A bare subscription, never registered with the server: Close will
	// not call sub.Close() on it, so only the lifecycle context can
	// unblock the consumer.
	sub, err := db.SubscribeQuery(nil, "?- likes(X, Y)", core.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Drain the initial snapshot so the next Next genuinely blocks.
	snapCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Next(snapCtx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := sub.Next(srv.lifeCtx)
		done <- err
	}()

	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Next returned an event after Close, want cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next survived Server.Close: lifecycle context was not cancelled")
	}
	if srv.lifeCtx.Err() == nil {
		t.Fatal("lifecycle context still live after Close")
	}
}

// TestWebhookPumpExitsOnClose drives the same property end to end: a
// registered webhook session's pump goroutine must drop its session
// after Server.Close, leaving no subscription running.
func TestWebhookPumpExitsOnClose(t *testing.T) {
	db := core.New()
	srv := New(db)

	sub, err := db.SubscribeQuery(nil, "?- likes(X, Y)", core.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ss := &subSession{id: sub.ID(), sub: sub, kind: "webhook", goal: "?- likes(X, Y)",
		webhook: "http://127.0.0.1:1/unreachable"}
	if !srv.registerSession(ss) {
		t.Fatal("register refused")
	}
	pumpDone := make(chan struct{})
	go func() {
		srv.deliverWebhook(ss)
		close(pumpDone)
	}()

	// Give the pump its snapshot (delivery fails against the dead sink,
	// which only counts one consecutive error), then shut down.
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case <-pumpDone:
	case <-time.After(10 * time.Second):
		t.Fatal("webhook pump survived Server.Close")
	}
	if got := db.SubscriptionStats().Active; got != 0 {
		t.Fatalf("%d subscriptions still active after Close", got)
	}
}
