package sql_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/engine/sql"
)

// dmlSeeds are the DML statements the store's mutation tests run, valid
// and invalid.
var dmlSeeds = []string{
	`INSERT INTO play (playID, play_title) VALUES (-1, 'Synthetic'), (-2, 'Another')`,
	`UPDATE play SET play_title = 'Renamed' WHERE playID <= -1`,
	`DELETE FROM play WHERE play_title = 'Renamed'`,
	`INSERT INTO nosuch (a) VALUES (1)`,
	`INSERT INTO play (play_title) VALUES (42)`,
	`INSERT INTO play (playID, play_title) VALUES (-1, 'ok'), (-2, 42)`,
	`UPDATE play SET playID = 'word' WHERE playID = 1`,
	`UPDATE nosuch SET a = 1`,
	`DELETE FROM nosuch`,
	`UPDATE play SET play_fm = 'raw' WHERE playID = 1`,
	`DELETE FROM speech WHERE speechID = 1`,
	`SELECT COUNT(*) FROM play`,
}

// FuzzParseStatement holds the SQL parser to returning an error on any
// input it cannot parse: it never panics, and it returns exactly one of
// a statement and an error. Seeds are the paper's QS1–QS6 and QG1–QG6 in
// both formulations plus the store's DML test statements.
func FuzzParseStatement(f *testing.F) {
	for _, q := range append(bench.ShakespeareQueries(), bench.SigmodQueries()...) {
		f.Add(q.Hybrid)
		f.Add(q.XORator)
	}
	for _, s := range dmlSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.ParseStatement(src)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("ParseStatement(%q) = %v, %v: want exactly one of a statement and an error", src, stmt, err)
		}
		sel, err := sql.Parse(src)
		if (sel == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", src, sel, err)
		}
	})
}
