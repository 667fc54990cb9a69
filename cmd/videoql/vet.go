package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"videodb/internal/core"
	"videodb/internal/datalog/analyze"
)

// videoql vet — static analysis of VideoQL scripts, no evaluation.
//
//	videoql vet [-json] [-db snapshot.json | -data DIR] script.vql ...
//
// Diagnostics print one per line as "file:line:col: severity[CODE]:
// message"; -json emits the same findings as a JSON array of per-file
// reports. The exit status is 1 when any diagnostic is an error, 2 on
// usage or I/O problems, 0 otherwise.

type vetReport struct {
	File        string               `json:"file"`
	Diagnostics []analyze.Diagnostic `json:"diagnostics"`
}

func runVet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	dbPath := fs.String("db", "", "load a database snapshot before analyzing")
	dataDir := fs.String("data", "", "open a durable database directory (segment files) before analyzing")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: videoql vet [-json] [-db snapshot.json | -data DIR] script.vql ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *dbPath != "" && *dataDir != "" {
		fmt.Fprintln(stderr, "videoql vet: -db and -data are mutually exclusive")
		return 2
	}

	var db *core.DB
	if *dataDir != "" {
		var err error
		db, err = core.OpenSegment(*dataDir)
		if err != nil {
			fmt.Fprintln(stderr, "videoql vet:", err)
			return 2
		}
	} else {
		db = core.New()
		if *dbPath != "" {
			if err := db.LoadFile(*dbPath); err != nil {
				fmt.Fprintln(stderr, "videoql vet:", err)
				return 2
			}
		}
	}
	defer db.Close()

	exit := 0
	var reports []vetReport
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "videoql vet:", err)
			return 2
		}
		// Each script is analyzed independently against the database.
		ds, err := db.Vet(string(src))
		if err != nil {
			fmt.Fprintln(stderr, "videoql vet:", err)
			return 2
		}
		if analyze.HasErrors(ds) {
			exit = 1
		}
		if *jsonOut {
			if ds == nil {
				ds = []analyze.Diagnostic{}
			}
			reports = append(reports, vetReport{File: path, Diagnostics: ds})
			continue
		}
		for _, d := range ds {
			fmt.Fprintf(stdout, "%s:%s\n", path, d)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reports)
	}
	return exit
}
