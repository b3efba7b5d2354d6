// Package cqp is a Go implementation of Constrained Query Personalization
// (Koutrika & Ioannidis, SIGMOD 2005): database query personalization as a
// family of constrained optimization problems solved by state-space search.
//
// Given a conjunctive query, a user profile of weighted preferences, and a
// search context expressed as one of the six CQP problems of the paper's
// Table 1, the library selects the subset of preferences whose integration
// optimizes one query parameter (degree of interest or execution cost)
// while the others stay within bounds, rewrites the query accordingly, and
// can execute it on the bundled in-memory relational engine.
//
// Quick start:
//
//	db := cqp.NewDB(schema, 0)            // load data ...
//	p := cqp.NewPersonalizer(db)
//	profile, _ := cqp.ParseProfile("doi(GENRE.genre = 'musical') = 0.5\n...")
//	q, _ := cqp.ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
//	res, _ := p.Personalize(q, profile, cqp.Problem2(400)) // cost ≤ 400 ms
//	fmt.Println(res.SQL)                                    // rewritten query
//	rows, _ := res.Execute()                                // ranked answers
//
// A Personalizer is safe for concurrent use; cmd/cqpd wraps one in an
// HTTP/JSON serving daemon with a versioned profile store, admission
// control and result caching (see internal/server).
package cqp

import (
	"context"
	"fmt"
	"io"
	"time"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/prefs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// Schema describes relations, attributes and schema-graph join edges.
type Schema = schema.Schema

// Relation is one relation definition within a Schema.
type Relation = schema.Relation

// Column is a typed attribute of a relation.
type Column = schema.Column

// AttrRef names an attribute as Relation.Attr.
type AttrRef = schema.AttrRef

// DB is the in-memory relational store with block-granular simulated I/O.
type DB = storage.DB

// Row is one tuple.
type Row = storage.Row

// Value is a typed scalar (INT, FLOAT, VARCHAR, BOOLEAN or NULL).
type Value = value.Value

// Query is a conjunctive select-project-join query.
type Query = query.Query

// Profile is a user profile: atomic selection and join preferences with
// degrees of interest over the personalization graph.
type Profile = prefs.Profile

// Problem is one member of the CQP family (Table 1 of the paper).
type Problem = core.Problem

// Solution reports the preference subset a solver chose and its estimated
// parameters.
type Solution = core.Solution

// SearchStats carries one search run's counters: algorithm name, duration,
// states visited, peak memory, and whether the state budget truncated it.
type SearchStats = core.Stats

// Metrics is the engine's concurrency-safe metrics registry. Attach one to
// a Personalizer with Observe; read it back via Snapshot, Render,
// WritePrometheus or Expvar. A nil *Metrics disables all recording.
type Metrics = obs.Registry

// Trace is one timed span of a pipeline trace tree (see StartTrace).
type Trace = obs.Span

// MetricSnapshot is the frozen state of one metric in a Metrics snapshot.
type MetricSnapshot = obs.MetricSnapshot

// AccuracySummary aggregates estimator accuracy (q-errors of estimated
// versus actual cost and size) over executed personalized queries.
type AccuracySummary = obs.AccuracySummary

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// FormatDuration renders a duration at the microsecond precision the
// pipeline reports everywhere.
func FormatDuration(d time.Duration) string { return obs.FormatDuration(d) }

// StartTrace starts a pipeline trace and returns a context carrying it.
// Pass the context to PersonalizeContext / ExecuteContext, then render the
// tree with Trace.Tree after the spans complete.
func StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	tr := obs.NewTrace(name)
	return obs.ContextWith(ctx, tr), tr
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewDB creates an empty database over the schema. blockSize ≤ 0 selects
// the 8 KiB default.
func NewDB(s *Schema, blockSize int) *DB { return storage.NewDB(s, blockSize) }

// Scalar constructors.
var (
	// Int builds an integer value.
	Int = value.Int
	// Float builds a floating-point value.
	Float = value.Float
	// Str builds a string value.
	Str = value.Str
	// Bool builds a boolean value.
	Bool = value.Bool
	// Null builds the NULL value.
	Null = value.Null
)

// ParseQuery parses a SQL SELECT statement in the supported subset and
// validates it against the schema.
func ParseQuery(s *Schema, sql string) (*Query, error) { return sqlparse.Parse(s, sql) }

// ParseProfile parses the text profile format: one
// "doi(<condition>) = <number>" preference per line.
func ParseProfile(src string) (*Profile, error) { return prefs.ParseProfile(src) }

// NewProfile returns an empty profile for programmatic construction.
func NewProfile() *Profile { return prefs.NewProfile() }

// The six problems of Table 1. Bounds use milliseconds for cost and
// estimated rows for sizes.
var (
	// Problem1 maximizes doi subject to smin ≤ size ≤ smax.
	Problem1 = core.Problem1
	// Problem2 maximizes doi subject to cost ≤ cmax.
	Problem2 = core.Problem2
	// Problem3 maximizes doi subject to cost ≤ cmax and smin ≤ size ≤ smax.
	Problem3 = core.Problem3
	// Problem4 minimizes cost subject to doi ≥ dmin.
	Problem4 = core.Problem4
	// Problem5 minimizes cost subject to doi ≥ dmin and smin ≤ size ≤ smax.
	Problem5 = core.Problem5
	// Problem6 minimizes cost subject to smin ≤ size ≤ smax.
	Problem6 = core.Problem6
)

// BuildProblem instantiates problem n of Table 1 from the full bound set,
// ignoring the bounds the problem does not use — the shared entry point for
// surfaces that take the problem number and bounds as user input (the cqp
// shell's flags, cqpd's JSON requests).
func BuildProblem(n int, cmax, smin, smax, dmin float64) (Problem, error) {
	switch n {
	case 1:
		return Problem1(smin, smax), nil
	case 2:
		return Problem2(cmax), nil
	case 3:
		return Problem3(cmax, smin, smax), nil
	case 4:
		return Problem4(dmin), nil
	case 5:
		return Problem5(dmin, smin, smax), nil
	case 6:
		return Problem6(smin, smax), nil
	default:
		return Problem{}, fmt.Errorf("cqp: problem must be 1-6, got %d", n)
	}
}

// AlgorithmNames lists the paper's five Problem-2 search algorithms in
// figure order, for use with WithAlgorithm.
func AlgorithmNames() []string {
	out := make([]string, len(core.Algorithms))
	for i, a := range core.Algorithms {
		out[i] = a.Name
	}
	return out
}

// SyntheticMovieDB generates a seeded IMDB-like movie database (MOVIE,
// DIRECTOR, GENRE, ACTOR, CAST) with Zipf-skewed value distributions, for
// examples and experiments.
func SyntheticMovieDB(movies int, seed int64) *DB {
	return workload.GenerateDB(workload.DBConfig{Movies: movies, Seed: seed})
}

// SyntheticProfile generates a seeded profile over SyntheticMovieDB's
// schema with the given number of selection preferences.
func SyntheticProfile(selections int, seed int64) *Profile {
	return workload.GenerateProfile(workload.ProfileConfig{SelectionPrefs: selections, Seed: seed})
}

// MovieSchema returns the synthetic movie schema (MOVIE, DIRECTOR, GENRE,
// ACTOR, CAST) used by SyntheticMovieDB, for loading external data into the
// same shape.
func MovieSchema() *Schema { return workload.Schema() }

// LoadCSV bulk-loads CSV (header row of column names first) into the named
// relation and returns the number of rows loaded. Call
// Personalizer.Refresh afterwards so statistics track the new data.
func LoadCSV(db *DB, relation string, r io.Reader) (int, error) {
	t, err := db.Table(relation)
	if err != nil {
		return 0, err
	}
	return t.ReadCSV(r)
}

// DumpCSV writes the named relation as CSV.
func DumpCSV(db *DB, relation string, w io.Writer) error {
	t, err := db.Table(relation)
	if err != nil {
		return err
	}
	return t.WriteCSV(w)
}
