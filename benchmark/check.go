package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"cqp"
)

// The response shapes the checker decodes — the documented JSON of cqpd's
// endpoints, restated here because the server's own types are unexported.
type solutionDoc struct {
	Doi           float64 `json:"doi"`
	CostMS        float64 `json:"cost_ms"`
	SizeRows      float64 `json:"size_rows"`
	Algorithm     string  `json:"algorithm"`
	StatesVisited int     `json:"states_visited"`
	Truncated     bool    `json:"truncated,omitempty"`
	DurationUS    int64   `json:"duration_us"`
}

type rowDoc struct {
	Values  []string `json:"values"`
	Doi     float64  `json:"doi"`
	Matched int      `json:"matched"`
}

// answerDoc is a /personalize answer, a /execute answer (which adds the row
// fields) or one item of a batch (which adds error).
type answerDoc struct {
	SQL            string      `json:"sql"`
	Preferences    []string    `json:"preferences"`
	PreferenceDois []float64   `json:"preference_dois"`
	Solution       solutionDoc `json:"solution"`
	SupremeCostMS  float64     `json:"supreme_cost_ms"`
	ProfileID      string      `json:"profile_id,omitempty"`
	ProfileVersion uint64      `json:"profile_version,omitempty"`
	Cached         bool        `json:"cached"`
	Degraded       string      `json:"degraded,omitempty"`

	Rows       []rowDoc `json:"rows,omitempty"`
	RowCount   int      `json:"row_count,omitempty"`
	TotalRows  int      `json:"total_rows,omitempty"`
	BlockReads int64    `json:"block_reads,omitempty"`
	ExecMS     float64  `json:"exec_ms,omitempty"`

	Error *struct {
		Class   string `json:"class"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

type topkDoc struct {
	Answers  []rowDoc `json:"answers"`
	Cached   bool     `json:"cached"`
	Degraded string   `json:"degraded,omitempty"`
}

type frontDoc struct {
	Points []struct {
		Preferences []string `json:"preferences"`
		Doi         float64  `json:"doi"`
		CostMS      float64  `json:"cost_ms"`
		SizeRows    float64  `json:"size_rows"`
		Knee        bool     `json:"knee,omitempty"`
	} `json:"points"`
	Truncated bool   `json:"truncated,omitempty"`
	Cached    bool   `json:"cached"`
	Degraded  string `json:"degraded,omitempty"`
}

type batchDoc struct {
	Results []answerDoc `json:"results"`
}

// replyDoc is a decoded pipeline reply: it says, item by item, whether the
// handler answered from its result cache.
type replyDoc interface{ cachedItems() []bool }

func (d *answerDoc) cachedItems() []bool { return []bool{d.Cached} }
func (d *topkDoc) cachedItems() []bool   { return []bool{d.Cached} }
func (d *frontDoc) cachedItems() []bool  { return []bool{d.Cached} }
func (d *batchDoc) cachedItems() []bool {
	out := make([]bool, len(d.Results))
	for i := range d.Results {
		out[i] = d.Results[i].Cached
	}
	return out
}

// rowValues renders a result row the way the server's JSON does.
func rowValues(row cqp.Row) []string {
	vals := make([]string, len(row))
	for i, v := range row {
		vals[i] = v.String()
	}
	return vals
}

type profileDoc struct {
	ID          string `json:"id"`
	Version     uint64 `json:"version"`
	Preferences int    `json:"preferences"`
	Text        string `json:"text,omitempty"`
}

// checker verifies sampled responses against the paper's promises and
// against the library's direct answer for the same query, profile text and
// problem. Its Personalizer is its own — built over the same database, never
// the server's — so a wrong answer cannot vouch for itself.
type checker struct {
	e   *env
	lib *cqp.Personalizer
	// version maps an acked profile version to the text variant stored
	// under it; set-up's loads and every acked PUT are in it.
	version  map[uint64]profileAt
	profiles map[profileAt]*cqp.Profile
	expected map[string]any // oracle answers by request, for repeated keys
}

type profileAt struct {
	profile uint32
	variant uint32
}

func newChecker(e *env) *checker {
	c := &checker{
		e:        e,
		lib:      cqp.NewPersonalizer(e.db),
		version:  map[uint64]profileAt{},
		profiles: map[profileAt]*cqp.Profile{},
		expected: map[string]any{},
	}
	for p, v := range e.loaded {
		c.version[v] = profileAt{profile: uint32(p)}
	}
	return c
}

// ack records an acked PUT: the version the server assigned now holds the
// op's text variant.
func (c *checker) ack(r reply) error {
	var doc profileDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Errorf("profile_put: decode: %w", err)
	}
	if doc.ID != profileID(int(r.op.profile)) || doc.Version == 0 {
		return fmt.Errorf("profile_put: acked %q version %d for %s", doc.ID, doc.Version, profileID(int(r.op.profile)))
	}
	c.version[doc.Version] = profileAt{r.op.profile, r.op.arg}
	return nil
}

// stored returns the text variant the profile held at an acked version.
func (c *checker) stored(profile uint32, version uint64) (uint32, error) {
	at, known := c.version[version]
	if !known || at.profile != profile {
		return 0, fmt.Errorf("version %d of %s was never acked", version, profileID(int(profile)))
	}
	return at.variant, nil
}

// profileAs returns the profile parsed from the given text variant.
func (c *checker) profileAs(profile, variant uint32) (*cqp.Profile, error) {
	key := profileAt{profile, variant}
	if p, ok := c.profiles[key]; ok {
		return p, nil
	}
	p, err := cqp.ParseProfile(c.e.texts[profile].text(variant))
	if err != nil {
		return nil, err
	}
	c.profiles[key] = p
	return p, nil
}

// opts are the library options equivalent to a request with bounds b.
func opts(b bounds) []cqp.Option { return []cqp.Option{cqp.WithMaxK(b.k)} }

// check verifies one sampled reply; nil means the answer is right.
func (c *checker) check(r reply) error {
	if r.status != 200 {
		return fmt.Errorf("%s: status %d", kindNames[r.op.kind], r.status)
	}
	var err error
	switch r.op.kind {
	case opPersonalize, opExecute:
		var doc answerDoc
		if err = json.Unmarshal(r.body, &doc); err == nil {
			err = c.checkAnswer(r.op, &doc, r.op.kind == opExecute)
		}
	case opBatch:
		var doc batchDoc
		if err = json.Unmarshal(r.body, &doc); err == nil {
			if len(doc.Results) != batchItems {
				err = fmt.Errorf("%d results for %d items", len(doc.Results), batchItems)
			}
			for i := 0; err == nil && i < batchItems; i++ {
				item := op{kind: opPersonalize, profile: r.op.profile, query: uint16(i), arg: r.op.arg + uint32(i)}
				err = c.checkAnswer(item, &doc.Results[i], false)
			}
		}
	case opTopK:
		err = c.checkTopK(r)
	case opFront:
		err = c.checkFront(r)
	case opProfileGet:
		var doc profileDoc
		if err = json.Unmarshal(r.body, &doc); err == nil {
			var variant uint32
			if variant, err = c.stored(r.op.profile, doc.Version); err == nil && doc.Text != c.e.texts[r.op.profile].text(variant) {
				err = fmt.Errorf("text differs from the text acked at version %d", doc.Version)
			}
		}
	case opProfilePut:
		err = c.ack(r)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", kindNames[r.op.kind], profileID(int(r.op.profile)), err)
	}
	return nil
}

// checkAnswer verifies a /personalize or /execute answer: full fidelity,
// the problem's constraints hold for the reported solution, and SQL,
// preferences and rows equal the library's.
func (c *checker) checkAnswer(o op, doc *answerDoc, executed bool) error {
	if doc.Error != nil {
		return fmt.Errorf("item error %s: %s", doc.Error.Class, doc.Error.Message)
	}
	if doc.Degraded != "" {
		return fmt.Errorf("degraded answer %q", doc.Degraded)
	}
	b := c.e.bounds[o.arg]
	prob := b.build()
	sol := doc.Solution
	if !prob.Feasible(sol.Doi, sol.CostMS, sol.SizeRows) {
		return fmt.Errorf("solution doi %g cost %g size %g violates %s", sol.Doi, sol.CostMS, sol.SizeRows, prob)
	}
	variant, err := c.stored(o.profile, doc.ProfileVersion)
	if err != nil {
		return err
	}
	type expect struct {
		res  *cqp.Result
		rows []rowDoc
		all  int
	}
	key := fmt.Sprintf("%d|%d|%d|%d|%v", o.profile, variant, o.query, o.arg, executed)
	want, ok := c.expected[key].(*expect)
	if !ok {
		prof, err := c.profileAs(o.profile, variant)
		if err != nil {
			return err
		}
		res, err := c.lib.Personalize(c.e.queries[o.query], prof, prob, opts(b)...)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		want = &expect{res: res}
		if executed {
			out, err := res.Execute()
			if err != nil {
				return fmt.Errorf("oracle execute: %w", err)
			}
			want.all = len(out.Rows)
			for i, rr := range out.Rows {
				if i == executeLimit {
					break
				}
				want.rows = append(want.rows, rowDoc{rowValues(rr.Key), rr.Doi, len(rr.Matched)})
			}
		}
		c.expected[key] = want
	}
	if doc.SQL != want.res.SQL {
		return fmt.Errorf("sql differs from the library's:\n got  %s\n want %s", doc.SQL, want.res.SQL)
	}
	if !slices.Equal(doc.Preferences, want.res.Preferences) {
		return fmt.Errorf("preferences differ from the library's")
	}
	if executed {
		if doc.TotalRows != want.all || !sameRows(doc.Rows, want.rows) {
			return fmt.Errorf("rows differ from the library's (%d of %d returned, want %d of %d)",
				len(doc.Rows), doc.TotalRows, len(want.rows), want.all)
		}
	}
	return nil
}

func sameRows(a, b []rowDoc) bool {
	return slices.EqualFunc(a, b, func(x, y rowDoc) bool {
		return x.Doi == y.Doi && x.Matched == y.Matched && slices.Equal(x.Values, y.Values)
	})
}

func (c *checker) checkTopK(r reply) error {
	var doc topkDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return err
	}
	if doc.Degraded != "" {
		return fmt.Errorf("degraded answer %q", doc.Degraded)
	}
	// /topk answers carry no profile version; serve_hot and execute_cold,
	// the workloads that send it, never rewrite a profile.
	b := c.e.bounds[r.op.arg]
	key := fmt.Sprintf("topk|%d|%d", r.op.profile, r.op.arg)
	want, ok := c.expected[key].([]rowDoc)
	if !ok {
		prof, err := c.profileAs(r.op.profile, 0)
		if err != nil {
			return err
		}
		answers, err := c.lib.PersonalizeTopK(c.e.queries[r.op.query], prof, b.cmax, topkAnswers, opts(b)...)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		want = []rowDoc{}
		for _, a := range answers {
			want = append(want, rowDoc{rowValues(a.Row), a.Doi, a.Matched})
		}
		c.expected[key] = want
	}
	if !sameRows(doc.Answers, want) {
		return fmt.Errorf("answers differ from the library's (%d, want %d)", len(doc.Answers), len(want))
	}
	return nil
}

func (c *checker) checkFront(r reply) error {
	var doc frontDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return err
	}
	if doc.Degraded != "" {
		return fmt.Errorf("degraded answer %q", doc.Degraded)
	}
	b := c.e.bounds[r.op.arg]
	key := fmt.Sprintf("front|%d|%d", r.op.profile, r.op.arg)
	want, ok := c.expected[key].(*cqp.Front)
	if !ok {
		prof, err := c.profileAs(r.op.profile, 0)
		if err != nil {
			return err
		}
		if want, err = c.lib.PersonalizeFront(c.e.queries[r.op.query], prof, b.cmax, 0, 0, frontPoints, opts(b)...); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		c.expected[key] = want
	}
	if len(doc.Points) != len(want.Points) {
		return fmt.Errorf("%d frontier points, want %d", len(doc.Points), len(want.Points))
	}
	for i, p := range doc.Points {
		w := want.Points[i]
		if p.CostMS > b.cmax+1e-9 || p.Doi != w.Doi || p.CostMS != w.CostMS || !slices.Equal(p.Preferences, w.Preferences) {
			return fmt.Errorf("frontier point %d differs from the library's", i)
		}
	}
	return nil
}

// verdict is the outcome of checking a window's sample.
type verdict struct {
	checked  int
	wrong    int
	firstErr string
}

func (v *verdict) note(err error) {
	v.checked++
	if err != nil {
		v.wrong++
		if v.firstErr == "" {
			v.firstErr = err.Error()
		}
	}
}

// acks applies every PUT the window's clients had acked.
func (c *checker) acks(w *window, v *verdict) {
	for i := range w.logs {
		for _, r := range w.logs[i].puts {
			if err := c.ack(r); err != nil {
				v.note(err)
			}
		}
	}
}

// verify checks every sampled reply of the window. Acked PUTs are applied
// first, so an answer computed under any acked version of a profile can be
// compared with the library's answer for that exact text.
func (c *checker) verify(w *window) verdict {
	var v verdict
	c.acks(w, &v)
	for i := range w.logs {
		for _, r := range w.logs[i].sampled {
			if r.op.kind != opProfilePut { // acked above
				v.note(c.check(r))
			}
		}
	}
	return v
}

// verifyStored reads back every profile the window wrote and requires the
// text of its last acked version: no acked write was lost or reordered.
func (c *checker) verifyStored(w *window) verdict {
	var v verdict
	last := map[uint32]uint64{}
	for i := range w.logs {
		for _, r := range w.logs[i].puts {
			var doc profileDoc
			if json.Unmarshal(r.body, &doc) == nil && doc.Version > last[r.op.profile] {
				last[r.op.profile] = doc.Version
			}
		}
	}
	written := make([]uint32, 0, len(last))
	for p := range last {
		written = append(written, p)
	}
	sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })
	cl := newClient(c.e)
	defer cl.close()
	for _, p := range written {
		o := op{kind: opProfileGet, profile: p}
		status, body, err := cl.send(o, 0, 0)
		if err != nil || status != 200 {
			v.note(fmt.Errorf("read back %s: status %d: %v", profileID(int(p)), status, err))
			continue
		}
		var doc profileDoc
		switch err := json.Unmarshal(body, &doc); {
		case err != nil:
			v.note(err)
		case doc.Version != last[p]:
			v.note(fmt.Errorf("%s is at version %d, last acked %d", profileID(int(p)), doc.Version, last[p]))
		default:
			v.note(c.check(reply{o, status, body}))
		}
	}
	return v
}
