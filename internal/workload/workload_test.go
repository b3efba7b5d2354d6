package workload

import (
	"testing"

	"cqp/internal/core"
	"cqp/internal/prefspace"
	"cqp/internal/storage"
)

func smallCfg() DBConfig {
	return DBConfig{Movies: 300, Directors: 40, Actors: 150, Seed: 1, BlockSize: 2048}
}

func TestGenerateDBShape(t *testing.T) {
	db := GenerateDB(smallCfg())
	if got := db.MustTable("MOVIE").RowCount(); got != 300 {
		t.Errorf("movies = %d", got)
	}
	if got := db.MustTable("DIRECTOR").RowCount(); got != 40 {
		t.Errorf("directors = %d", got)
	}
	g := db.MustTable("GENRE").RowCount()
	if g < 300 || g > 300*4 {
		t.Errorf("genre rows = %d, expected within [1,4] per movie", g)
	}
	c := db.MustTable("CAST").RowCount()
	if c < 300 {
		t.Errorf("cast rows = %d", c)
	}
	if db.TotalBlocks() == 0 {
		t.Error("no blocks")
	}
	if err := db.Schema().Validate(); err != nil {
		t.Error(err)
	}
}

func TestGenerateDBDeterministic(t *testing.T) {
	a := GenerateDB(smallCfg())
	b := GenerateDB(smallCfg())
	if a.MustTable("GENRE").RowCount() != b.MustTable("GENRE").RowCount() {
		t.Error("same seed must generate identical databases")
	}
	cfg := smallCfg()
	cfg.Seed = 2
	c := GenerateDB(cfg)
	if a.MustTable("GENRE").RowCount() == c.MustTable("GENRE").RowCount() &&
		a.MustTable("CAST").RowCount() == c.MustTable("CAST").RowCount() {
		t.Error("different seeds should differ (probabilistically)")
	}
}

func TestZipfSkew(t *testing.T) {
	db := GenerateDB(smallCfg())
	// The most popular director should direct far more than the average.
	counts := map[int64]int{}
	mrows, err := storage.AllRows(db.MustTable("MOVIE"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mrows {
		counts[r[4].AsInt()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*300/40 {
		t.Errorf("top director has %d movies; expected strong skew over mean %d", max, 300/40)
	}
}

func TestGenerateProfile(t *testing.T) {
	p := GenerateProfile(ProfileConfig{Seed: 3})
	if err := p.Validate(Schema()); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	// 4 join prefs + default 60 selections.
	if p.Len() != 64 {
		t.Errorf("profile has %d prefs", p.Len())
	}
	if len(p.JoinsFrom("MOVIE")) != 3 {
		t.Errorf("MOVIE join prefs = %d", len(p.JoinsFrom("MOVIE")))
	}
	ps := Profiles(3, ProfileConfig{Seed: 3})
	if len(ps) != 3 || ps[0].String() == ps[1].String() {
		t.Error("Profiles must differ across seeds")
	}
}

func TestQueriesValid(t *testing.T) {
	s := Schema()
	for i, q := range Queries(25, 5) {
		if err := q.Validate(s); err != nil {
			t.Errorf("query %d invalid: %v (%s)", i, err, q.SQL())
		}
		if !q.Connected() {
			t.Errorf("query %d disconnected: %s", i, q.SQL())
		}
		if !q.HasRelation("MOVIE") {
			t.Errorf("query %d must anchor at MOVIE", i)
		}
	}
}

// TestEndToEndInstances: profiles must be rich enough to extract K = 40
// preferences for typical queries, and the resulting spaces must be valid
// and their instances solvable.
func TestEndToEndInstances(t *testing.T) {
	env := NewEnv(smallCfg(), 1)
	profile := GenerateProfile(ProfileConfig{Seed: 11})
	for i, q := range Queries(5, 7) {
		sp, err := prefspace.Build(q, profile, env.Est, prefspace.Options{MaxK: 40})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if sp.K < 40 {
			t.Errorf("query %d: only %d preferences extracted, want 40", i, sp.K)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		in := core.FromSpace(sp)
		in.StateBudget = 200000 // keep the K=40 search bounded in tests
		cmax := in.SupremeCost() * 0.4
		sol := core.CMaxBounds(in, cmax)
		if !sol.Feasible || sol.Cost > cmax+1e-9 {
			t.Errorf("query %d: solve failed: %+v", i, sol)
		}
	}
}
