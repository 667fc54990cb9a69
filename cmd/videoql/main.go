// Command videoql is an interactive shell (and batch runner) for VideoQL
// video databases.
//
// Usage:
//
//	videoql [-db snapshot.json | -data DIR] [script.vql ...]
//	videoql vet [-json] [-db snapshot.json | -data DIR] script.vql ...
//
// -data opens a durable database directory on the segment backend; -db
// loads a snapshot (the export format \save writes) into a volatile
// in-memory database.
//
// The vet subcommand statically analyzes scripts (typo'd predicates,
// arity clashes, provably dead rules, unreachable rules, perf lints)
// without evaluating them, and exits 1 when any diagnostic is an error.
//
// Scripts are executed in order; their queries print answers. Without
// scripts (or with -i), an interactive prompt follows. Statements at the
// prompt are standard VideoQL statements terminated by ".", plus the
// shell commands:
//
//	\rules            print the current rule program
//	\explain <query>  show the evaluation plan of a query
//	\why <atom>       show the derivation tree of a ground atom
//	\objects          list object ids
//	\show <oid>       print one object
//	\save <path>      write a database snapshot
//	\load <path>      read a database snapshot
//	\stats            database statistics
//	\quit             leave
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"videodb/internal/core"
	"videodb/internal/object"
)

func main() {
	// Subcommands take over before flag parsing: "videoql vet ..." is
	// static analysis, not script execution.
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:], os.Stdout, os.Stderr))
	}
	dbPath := flag.String("db", "", "load a database snapshot before running")
	dataDir := flag.String("data", "", "open a durable database directory (segment files)")
	interactive := flag.Bool("i", false, "force an interactive prompt after scripts")
	flag.Parse()

	var db *core.DB
	switch {
	case *dbPath != "" && *dataDir != "":
		fatal(fmt.Errorf("-db and -data are mutually exclusive"))
	case *dataDir != "":
		var err error
		db, err = core.OpenSegment(*dataDir)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		fmt.Fprintf(os.Stderr, "opened durable database %s\n", *dataDir)
	default:
		db = core.New()
		if *dbPath != "" {
			if err := db.LoadFile(*dbPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "loaded %s\n", *dbPath)
		}
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		results, err := db.LoadScript(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		for _, rs := range results {
			printResult(os.Stdout, rs)
		}
	}

	if len(flag.Args()) == 0 || *interactive {
		repl(db)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "videoql:", err)
	os.Exit(1)
}

func repl(db *core.DB) { replOn(db, os.Stdin, os.Stdout) }

func replOn(db *core.DB, stdin io.Reader, w io.Writer) {
	in := bufio.NewScanner(stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "videoql> "
	for {
		fmt.Fprint(w, prompt)
		if !in.Scan() {
			fmt.Fprintln(w)
			return
		}
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(w, db, trimmed) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		// Statements end with "." at end of line.
		if !strings.HasSuffix(trimmed, ".") {
			prompt = "     ... "
			continue
		}
		stmt := pending.String()
		pending.Reset()
		prompt = "videoql> "
		results, err := db.LoadScript(stmt)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			continue
		}
		for _, rs := range results {
			printResult(w, rs)
		}
	}
}

func command(w io.Writer, db *core.DB, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\rules`:
		prog := db.Rules()
		if len(prog.Rules) == 0 {
			fmt.Fprintln(w, "(no rules)")
		} else {
			fmt.Fprintln(w, prog)
		}
	case `\explain`:
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\explain <query>")
			break
		}
		out, err := db.Explain(strings.TrimPrefix(line, `\explain `))
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		fmt.Fprint(w, out)
	case `\why`:
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\why <ground atom>")
			break
		}
		out, err := db.Why(strings.TrimPrefix(line, `\why `))
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		fmt.Fprint(w, out)
	case `\objects`:
		for _, oid := range db.Store().OIDs() {
			o := db.Object(oid)
			fmt.Fprintf(w, "%-20s %s\n", oid, o.Kind())
		}
	case `\show`:
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\show <oid>")
			break
		}
		o := db.Object(object.OID(fields[1]))
		if o == nil {
			fmt.Fprintf(w, "no object %q\n", fields[1])
			break
		}
		fmt.Fprintln(w, o)
	case `\save`:
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\save <path>")
			break
		}
		if err := db.SaveFile(fields[1]); err != nil {
			fmt.Fprintln(w, "error:", err)
		} else {
			fmt.Fprintln(w, "saved", fields[1])
		}
	case `\load`:
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\load <path>")
			break
		}
		if err := db.LoadFile(fields[1]); err != nil {
			fmt.Fprintln(w, "error:", err)
		} else {
			fmt.Fprintln(w, "loaded", fields[1])
		}
	case `\stats`:
		st := db.Store().Stats()
		fmt.Fprintf(w, "objects %d (%d intervals, %d entities), facts %d in %d relations\n",
			st.Objects, st.Intervals, st.Entities, st.Facts, st.Relations)
	default:
		fmt.Fprintf(w, "unknown command %s (try \\rules \\explain \\why \\objects \\show \\save \\load \\stats \\quit)\n", fields[0])
	}
	return true
}

func printResult(w io.Writer, rs *core.ResultSet) {
	if len(rs.Rows) == 0 {
		fmt.Fprintln(w, "no")
		return
	}
	if len(rs.Columns) == 0 {
		fmt.Fprintln(w, "yes")
		return
	}
	for _, row := range rs.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%s = %s", rs.Columns[i], v)
		}
		fmt.Fprintln(w, strings.Join(parts, ", "))
	}
	fmt.Fprintf(w, "(%d answers", len(rs.Rows))
	if rs.Stats.Created > 0 {
		fmt.Fprintf(w, ", %d objects created", rs.Stats.Created)
	}
	fmt.Fprintln(w, ")")
}
