// Package integration holds black-box tests that drive the whole stack —
// substrate, engine, language, durability, presentation — in one scenario.
package integration

import (
	"strings"
	"testing"

	"videodb/internal/core"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/video"
)

// openTestDB opens the durable database in dir on the segment backend.
func openTestDB(t *testing.T, dir string) *core.DB {
	t.Helper()
	db, err := core.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFullSystemIntegration drives the whole stack in one scenario: a
// synthetic broadcast is generated and populated into a durable database;
// rules using negation, temporal operators, assignments and constructive
// heads are defined; queries run before and after a crash-recovery cycle;
// classification, aggregation and presentation operate on the answers.
func TestFullSystemIntegration(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)

	// 1. Populate from the video substrate.
	seq := video.Generate(video.GenConfig{
		Seed: 77, DurationSec: 300, NumObjects: 6, AvgShotSec: 10, Presence: 0.3,
	})
	if err := video.Populate(db, seq); err != nil {
		t.Fatal(err)
	}

	// 2. A program exercising class atoms, temporal operators and
	// negation. (The constructive rule is defined later: ⊕-created
	// intervals join the Interval class and would legitimately change the
	// partition and aggregation checks below.)
	rules := []string{
		"appears(O, G) :- Interval(G), Object(O), O in G.entities",
		"later(G1, G2) :- Interval(G1), Interval(G2), G1.duration after G2.duration",
		"offscreen(O, G) :- Object(O), Interval(G), not appears(O, G)",
	}
	for _, r := range rules {
		if err := db.DefineRule(r); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
	}

	// 3. Classification over the entities.
	if err := db.DefineClass("person", ""); err != nil {
		t.Fatal(err)
	}
	if err := db.AssignClass("obj000", "person"); err != nil {
		t.Fatal(err)
	}
	if err := db.AssignClass("obj001", "person"); err != nil {
		t.Fatal(err)
	}

	// 4. Queries before the crash cycle.
	appearances, err := db.Query("?- appears(obj000, G).")
	if err != nil {
		t.Fatal(err)
	}
	if appearances.Count() == 0 {
		t.Fatal("obj000 should appear somewhere")
	}
	off, err := db.Query("?- offscreen(obj000, G).")
	if err != nil {
		t.Fatal(err)
	}
	totalIntervals := len(db.Intervals())
	if appearances.Count()+off.Count() != totalIntervals {
		t.Errorf("appears (%d) + offscreen (%d) != intervals (%d)",
			appearances.Count(), off.Count(), totalIntervals)
	}

	people, err := db.InstancesOf("person")
	if err != nil || len(people) != 2 {
		t.Errorf("people = %v, %v", people, err)
	}

	// 5. Aggregation over screen time.
	screen, err := db.Query(`?- Interval(G), G.kind = "occurrence", obj000 in G.entities.`)
	if err != nil {
		t.Fatal(err)
	}
	total, err := screen.TotalScreenTime("G")
	if err != nil {
		t.Fatal(err)
	}
	if want := seq.Occurrences["obj000"].Duration(); total != want {
		t.Errorf("screen time %v, want %v", total, want)
	}

	// 6. Crash cycle: close, reopen, re-add rules (rules are source).
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, dir)
	defer db.Close()
	for _, r := range rules {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}

	again, err := db.Query("?- appears(obj000, G).")
	if err != nil {
		t.Fatal(err)
	}
	if again.Count() != appearances.Count() {
		t.Errorf("appearances after recovery: %d vs %d", again.Count(), appearances.Count())
	}

	// 7. Constructive rule (virtual editing): merge the occurrence
	// intervals of two objects that share a shot, then present a created
	// object.
	if err := db.DefineRule(
		"joint(G1 + G2) :- appears(O1, S), appears(O2, S), " +
			`S.kind = "shot", O1 != O2, ` +
			"appears(O1, G1), appears(O2, G2), " +
			`G1.kind = "occurrence", G2.kind = "occurrence"`); err != nil {
		t.Fatal(err)
	}
	joint, err := db.Query("?- joint(G).")
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.Created) == 0 {
		t.Fatal("expected ⊕-created objects")
	}
	created := joint.Created[0]
	edl, err := core.PresentationOf(created)
	if err != nil {
		t.Fatal(err)
	}
	if edl.Runtime() != created.Duration().Duration() {
		t.Errorf("EDL runtime %v != duration %v", edl.Runtime(), created.Duration().Duration())
	}
	compact, err := edl.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if compact.Runtime() != edl.Runtime() {
		t.Errorf("compact changed runtime")
	}

	// 8. Explain and Why work against the same program.
	plan, err := db.Explain("?- offscreen(obj000, G).")
	if err != nil || !strings.Contains(plan, "anti-join") {
		t.Errorf("plan = %q, %v", plan, err)
	}
	// Pick one real appearance to explain.
	oids, err := again.OIDs()
	if err != nil {
		t.Fatal(err)
	}
	why, err := db.Why("appears(obj000, " + string(oids[0]) + ").")
	if err != nil || !strings.Contains(why, "[by") {
		t.Errorf("why = %q, %v", why, err)
	}

	// 9. Virtual editing through Compose matches the constructive result
	// for the same operands.
	occ := db.Object("occ_obj000")
	if occ == nil {
		t.Fatal("occurrence object missing")
	}
	var other object.OID
	for _, name := range seq.Objects() {
		if name != "obj000" && db.Object(object.OID("occ_"+name)) != nil {
			other = object.OID("occ_" + name)
			break
		}
	}
	if other != "" {
		oid, err := db.Compose("occ_obj000", other)
		if err != nil {
			t.Fatal(err)
		}
		want := occ.Duration().Union(db.Object(other).Duration())
		if !db.Object(oid).Duration().Equal(want) {
			t.Errorf("composed duration mismatch")
		}
	}

	// 10. Temporal operator sanity: later is irreflexive on bounded
	// intervals.
	rs, err := db.Query("?- later(G, G).")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count() != 0 {
		t.Errorf("later(G,G) should be empty, got %d", rs.Count())
	}
	_ = interval.Empty() // keep the import for the helpers above
}
