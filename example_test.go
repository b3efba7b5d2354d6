package cqp_test

import (
	"fmt"
	"log"

	"cqp"
)

// exampleDB builds the paper's Section 3 movie database.
func exampleDB() *cqp.DB {
	s := cqp.NewSchema()
	s.MustAddRelation("MOVIE", "mid",
		cqp.Column{Name: "mid", Type: cqp.Int(0).Kind()},
		cqp.Column{Name: "title", Type: cqp.Str("").Kind()},
		cqp.Column{Name: "year", Type: cqp.Int(0).Kind()},
		cqp.Column{Name: "duration", Type: cqp.Int(0).Kind()},
		cqp.Column{Name: "did", Type: cqp.Int(0).Kind()})
	s.MustAddRelation("DIRECTOR", "did",
		cqp.Column{Name: "did", Type: cqp.Int(0).Kind()},
		cqp.Column{Name: "name", Type: cqp.Str("").Kind()})
	s.MustAddRelation("GENRE", "",
		cqp.Column{Name: "mid", Type: cqp.Int(0).Kind()},
		cqp.Column{Name: "genre", Type: cqp.Str("").Kind()})
	s.MustAddJoin("MOVIE.did", "DIRECTOR.did")
	s.MustAddJoin("MOVIE.mid", "GENRE.mid")

	db := cqp.NewDB(s, 0)
	d := db.MustTable("DIRECTOR")
	d.MustInsert(cqp.Int(1), cqp.Str("W. Allen"))
	d.MustInsert(cqp.Int(2), cqp.Str("A. Hitchcock"))
	m := db.MustTable("MOVIE")
	m.MustInsert(cqp.Int(1), cqp.Str("Bananas"), cqp.Int(1971), cqp.Int(82), cqp.Int(1))
	m.MustInsert(cqp.Int(2), cqp.Str("Everyone Says I Love You"), cqp.Int(1996), cqp.Int(101), cqp.Int(1))
	m.MustInsert(cqp.Int(3), cqp.Str("Vertigo"), cqp.Int(1958), cqp.Int(128), cqp.Int(2))
	g := db.MustTable("GENRE")
	g.MustInsert(cqp.Int(1), cqp.Str("comedy"))
	g.MustInsert(cqp.Int(2), cqp.Str("musical"))
	g.MustInsert(cqp.Int(3), cqp.Str("thriller"))
	return db
}

// Example personalizes the paper's running query under a cost bound
// (Problem 2) and executes the rewritten query.
func Example() {
	db := exampleDB()
	p := cqp.NewPersonalizer(db)
	profile, err := cqp.ParseProfile(`
doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(MOVIE.did = DIRECTOR.did) = 1.0
doi(DIRECTOR.name = 'W. Allen') = 0.8
`)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cqp.ParseQuery(db.Schema(), "select title from MOVIE")
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Personalize(q, profile, cqp.Problem2(1000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("doi %.2f with %d preferences\n", res.Solution.Doi, len(res.Preferences))
	rows, err := res.Execute()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows.Rows {
		fmt.Println(r.Key[0])
	}
	// Output:
	// doi 0.89 with 2 preferences
	// Everyone Says I Love You
}

// ExampleParseProfile shows the Figure 1 profile text format.
func ExampleParseProfile() {
	profile, err := cqp.ParseProfile(`
# join preference: how DIRECTOR preferences influence MOVIE
doi(MOVIE.did = DIRECTOR.did) = 1.0
doi(DIRECTOR.name = 'W. Allen') = 0.8
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(profile.Len(), "preferences")
	// Output:
	// 2 preferences
}

// ExamplePersonalizer_EstimateQuery prices a query before choosing bounds.
func ExamplePersonalizer_EstimateQuery() {
	db := exampleDB()
	p := cqp.NewPersonalizer(db)
	q, _ := cqp.ParseQuery(db.Schema(), "SELECT title FROM MOVIE WHERE year >= 1970")
	costMS, size, _ := p.EstimateQuery(q)
	fmt.Printf("cost %.0f ms, about %.1f rows\n", costMS, size)
	// Output:
	// cost 1 ms, about 2.0 rows
}

// ExamplePersonalizer_Personalize_minCost shows a cost-minimization problem
// (Problem 4): the cheapest personalization that is still clearly personal.
func ExamplePersonalizer_Personalize_minCost() {
	db := exampleDB()
	p := cqp.NewPersonalizer(db)
	profile, _ := cqp.ParseProfile(`
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.year >= 1990) = 0.7
`)
	q, _ := cqp.ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, profile, cqp.Problem4(0.6))
	if err != nil {
		log.Fatal(err)
	}
	// The atomic year preference (doi 0.7 ≥ 0.6) is cheaper than the
	// GENRE join path.
	fmt.Println(len(res.Preferences), "preference, doi", res.Solution.Doi)
	// Output:
	// 1 preference, doi 0.7
}

// ExamplePersonalizer_Personalize_distinct shows when a query and its
// DISTINCT form personalize alike. With a preference integrated they do,
// byte for byte: every sub-query selects DISTINCT and their union is grouped
// on the projection. With none, the answer is the query itself and DISTINCT
// shows, so the server's cache keys and batch dedup, which name a query by
// its rendering, keep the two apart.
func ExamplePersonalizer_Personalize_distinct() {
	db := exampleDB()
	p := cqp.NewPersonalizer(db)
	for _, text := range []string{`
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(GENRE.genre = 'comedy') = 0.8
doi(MOVIE.year >= 1970) = 0.7
`, `
doi(DIRECTOR.name = 'W. Allen') = 0.8
`} {
		profile, _ := cqp.ParseProfile(text)
		var sqls []string
		for _, sql := range []string{"SELECT DISTINCT MOVIE.title FROM MOVIE", "SELECT MOVIE.title FROM MOVIE"} {
			q, _ := cqp.ParseQuery(db.Schema(), sql)
			res, err := p.Personalize(q, profile, cqp.Problem2(1000))
			if err != nil {
				log.Fatal(err)
			}
			sqls = append(sqls, res.SQL)
		}
		fmt.Println(sqls[0] == sqls[1], sqls[0])
	}
	// Output:
	// true SELECT MOVIE.title FROM (SELECT DISTINCT MOVIE.title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'comedy' UNION ALL SELECT DISTINCT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1970) GROUP BY MOVIE.title HAVING COUNT(*) = 2
	// false SELECT DISTINCT MOVIE.title FROM MOVIE
}
