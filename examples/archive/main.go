// Command archive models what the paper's prototype was built for — "a
// video document archive … by both a television channel and a national
// audio-visual institute" (Section 1): several video documents in one
// durable database, each a 7-tuple V = (I, O, f, R, Σ, λ1, λ2), queried
// across documents and compiled into a broadcast-ready edit list.
package main

import (
	"fmt"
	"log"
	"os"

	"videodb/internal/core"
	"videodb/internal/interval"
	"videodb/internal/object"
)

func main() {
	dir, err := os.MkdirTemp("", "videodb-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := core.OpenSegment(dir) // durable: segment files + tail log
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Two news broadcasts sharing recurring subjects.
	for _, e := range []struct {
		oid  object.OID
		name string
	}{
		{"minister", "The Minister"}, {"reporter", "Field Reporter"},
		{"anchor", "Anchor"}, {"tank", "Tank"},
	} {
		if err := db.PutEntity(e.oid, map[string]object.Value{"name": object.Str(e.name)}); err != nil {
			log.Fatal(err)
		}
	}

	monday, err := db.CreateSequence("news_mon", map[string]object.Value{
		"title": object.Str("Evening News, Monday")})
	if err != nil {
		log.Fatal(err)
	}
	tuesday, err := db.CreateSequence("news_tue", map[string]object.Value{
		"title": object.Str("Evening News, Tuesday")})
	if err != nil {
		log.Fatal(err)
	}

	add := func(seq *core.Sequence, oid object.OID, dur interval.Generalized, ents ...object.OID) {
		if err := seq.AddInterval(oid, dur, map[string]object.Value{
			object.AttrEntities: object.RefSet(ents...),
		}); err != nil {
			log.Fatal(err)
		}
	}
	add(monday, "mon_intro", interval.FromPairs(0, 40), "anchor")
	add(monday, "mon_speech", interval.FromPairs(40, 160, 300, 340), "minister", "reporter")
	add(monday, "mon_army", interval.FromPairs(160, 300), "tank", "reporter")
	add(tuesday, "tue_intro", interval.FromPairs(0, 35), "anchor")
	add(tuesday, "tue_follow", interval.FromPairs(35, 200), "minister")

	// The 7-tuple of Monday's broadcast, per Section 5.1.
	v := monday.Tuple()
	fmt.Printf("V(news_mon): |I|=%d |O|=%d |f|=%d |R|=%d\n", len(v.I), len(v.O), len(v.F), len(v.R))
	for _, gi := range v.I {
		fmt.Printf("  λ1(%s) = %v   λ2(%s) = %v\n", gi, v.Lambda1[gi], gi, v.Lambda2[gi])
	}
	fmt.Println()

	// Cross-document query: every fragment of any broadcast showing the
	// minister.
	if err := db.DefineRule(
		"minister_footage(G, S) :- part_of(G, S), Interval(G), minister in G.entities"); err != nil {
		log.Fatal(err)
	}
	rs, err := db.Query("?- minister_footage(G, S).")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minister footage across the archive:")
	for _, row := range rs.Rows {
		fmt.Printf("  %s (from %s)\n", row[0], row[1])
	}
	fmt.Println()

	// Compile it into a gapless reel.
	oids := make([]object.OID, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		oid, _ := row[0].AsRef()
		oids = append(oids, oid)
	}
	edl, err := db.Presentation(oids...)
	if err != nil {
		log.Fatal(err)
	}
	reel, err := edl.Compact(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled reel (%.0fs):\n%s\n", reel.Runtime(), reel)
}
