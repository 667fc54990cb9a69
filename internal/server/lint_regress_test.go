package server

import (
	"context"
	"testing"
	"time"

	"videodb/internal/core"
)

// Regression tests for the webhook pump that waited on
// context.Background(), so Server.Close could not unblock it (found by
// ctxcheck; BUGS.md lists it). The metrics-parity regression it used to
// sit beside is TestStatsTotalsCoverWireCounters in metrics_table_test.go.

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
