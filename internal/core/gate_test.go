package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The admission gate wraps every evaluation entrypoint: each call either
// acquires and releases exactly once, or is refused before any parsing
// or engine work happens.
func TestEvalGate(t *testing.T) {
	var entered, released atomic.Int64
	var refuse atomic.Bool
	errRefused := errors.New("gate: refused")
	gate := func(ctx context.Context) (func(), error) {
		if ctx == nil {
			t.Error("gate received a nil context")
		}
		if refuse.Load() {
			return nil, errRefused
		}
		entered.Add(1)
		return func() { released.Add(1) }, nil
	}

	db := New(WithGate(gate))
	defer db.Close()
	if _, err := db.LoadScript("object o1 { }.\nobject o2 { }.\nr(o1, o2)."); err != nil {
		t.Fatal(err)
	}
	// LoadScript itself is gated; start counting from the entrypoint sweep.
	entered.Store(0)
	released.Store(0)

	ctx := context.Background()
	entrypoints := []struct {
		name string
		call func() error
	}{
		{"QueryContext", func() error { _, err := db.QueryContext(ctx, "?- r(X, Y)."); return err }},
		{"QueryProfiledContext", func() error { _, err := db.QueryProfiledContext(ctx, "?- r(X, Y)."); return err }},
		{"LoadScriptContext", func() error { _, err := db.LoadScriptContext(ctx, "?- r(X, Y)."); return err }},
		{"ExplainContext", func() error { _, err := db.ExplainContext(ctx, "?- r(X, Y)."); return err }},
		{"MaterializeContext", func() error { _, err := db.MaterializeContext(ctx, "v", "?- r(X, Y)"); return err }},
		{"ViewContext", func() error { _, err := db.ViewContext(ctx, "v"); return err }},
		{"SubscribeQueryContext", func() error {
			sub, err := db.SubscribeQueryContext(ctx, nil, "?- r(X, Y)", SubOptions{})
			if err == nil {
				sub.Close()
			}
			return err
		}},
	}

	for i, ep := range entrypoints {
		if err := ep.call(); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		if got := entered.Load(); got != int64(i+1) {
			t.Fatalf("%s: gate entered %d times, want %d", ep.name, got, i+1)
		}
		if entered.Load() != released.Load() {
			t.Fatalf("%s: %d acquisitions vs %d releases", ep.name, entered.Load(), released.Load())
		}
	}

	// A parse error still releases the admitted slot.
	if _, err := db.QueryContext(ctx, "?- broken("); err == nil {
		t.Fatal("expected a parse error")
	}
	if entered.Load() != released.Load() {
		t.Fatalf("parse error leaked a slot: %d entered, %d released", entered.Load(), released.Load())
	}

	// A refusing gate surfaces its error verbatim and evaluates nothing.
	refuse.Store(true)
	before := entered.Load()
	for _, ep := range entrypoints {
		if err := ep.call(); !errors.Is(err, errRefused) {
			t.Fatalf("%s with refusing gate: err = %v, want %v", ep.name, err, errRefused)
		}
	}
	if entered.Load() != before {
		t.Fatalf("refused calls still entered the gate: %d -> %d", before, entered.Load())
	}
}

// A gate returning a nil release must not crash the entrypoints, and a
// gateless DB admits everything (the default path).
func TestEvalGateNilRelease(t *testing.T) {
	db := New(WithGate(func(ctx context.Context) (func(), error) { return nil, nil }))
	defer db.Close()
	if err := db.Relate("e", "a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rs, err := db.Query("?- e(X).")
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("run %d: rows=%v err=%v", i, rs, err)
		}
	}
}

// The gate observes the caller's context, so a deadline-aware admission
// queue can give up when the request dies while queued.
func TestEvalGateSeesCallerContext(t *testing.T) {
	type ctxKey struct{}
	var sawValue atomic.Bool
	db := New(WithGate(func(ctx context.Context) (func(), error) {
		if v, ok := ctx.Value(ctxKey{}).(string); ok && v == "tenant-7" {
			sawValue.Store(true)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gate: caller gone: %w", err)
		}
		return func() {}, nil
	}))
	defer db.Close()
	if err := db.Relate("e", "a"); err != nil {
		t.Fatal(err)
	}

	ctx := context.WithValue(context.Background(), ctxKey{}, "tenant-7")
	if _, err := db.QueryContext(ctx, "?- e(X)."); err != nil {
		t.Fatal(err)
	}
	if !sawValue.Load() {
		t.Fatal("gate did not observe the caller's context values")
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(dead, "?- e(X)."); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err = %v, want context.Canceled", err)
	}
}

// A registration's first answer is evaluation: a blocking gate holds
// MaterializeContext and SubscribeQueryContext until it is released, and
// neither registers anything meanwhile. The answer they return reflects
// the store at release, so a write made while they waited is in the
// snapshot, and one made after they returned is a delta.
func TestGateHoldsRegistration(t *testing.T) {
	open := make(chan struct{})
	var waiting atomic.Int64
	db := New(WithGate(func(ctx context.Context) (func(), error) {
		waiting.Add(1)
		select {
		case <-open:
			return func() {}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}))
	defer db.Close()
	if err := db.Relate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}

	type result struct {
		view *ViewResult
		sub  *Subscription
		err  error
	}
	viewDone, subDone := make(chan result, 1), make(chan result, 1)
	go func() {
		v, err := db.MaterializeContext(context.Background(), "v", "?- likes(X, Y)")
		viewDone <- result{view: v, err: err}
	}()
	go func() {
		s, err := db.SubscribeQueryContext(context.Background(), nil, "?- likes(X, Y)", SubOptions{})
		subDone <- result{sub: s, err: err}
	}()
	for waiting.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-viewDone:
		t.Fatalf("MaterializeContext returned through a closed gate: %+v", r)
	case r := <-subDone:
		t.Fatalf("SubscribeQueryContext returned through a closed gate: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if n := len(db.Subscriptions()); n != 0 {
		t.Fatalf("%d subscriptions registered behind a closed gate", n)
	}
	if n := len(db.Views()); n != 0 {
		t.Fatalf("%d views registered behind a closed gate", n)
	}
	if err := db.Relate("likes", "b", "c"); err != nil {
		t.Fatal(err)
	}

	close(open)
	vr, sr := <-viewDone, <-subDone
	if vr.err != nil || sr.err != nil {
		t.Fatalf("after release: view %v, subscribe %v", vr.err, sr.err)
	}
	defer sr.sub.Close()
	if len(vr.view.Rows) != 2 {
		t.Fatalf("view's first answer has %d rows, want 2", len(vr.view.Rows))
	}
	if err := db.Relate("likes", "c", "d"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, err := sr.sub.Next(ctx)
	if err != nil || ev.Kind != SubSnapshot || len(ev.Rows) != 2 {
		t.Fatalf("first event = %+v (%v), want a 2-row snapshot", ev, err)
	}
	ev, err = sr.sub.Next(ctx)
	if err != nil || ev.Kind != SubDelta || ev.Sign != 1 || ev.Row[0].String() != "c" {
		t.Fatalf("second event = %+v (%v), want +likes(c, d)", ev, err)
	}
}
