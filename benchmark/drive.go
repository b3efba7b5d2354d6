package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// reply is a response kept for checking after the window.
type reply struct {
	op     op
	status int
	body   []byte
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	latencies []time.Duration
	failed    int
	firstErr  string
	sampled   []reply // the 1-in-64 sample
	puts      []reply // every PUT answer: the acked versions
	end       time.Time
	exhausted bool // the stream ran out before the deadline
}

func (l *clientLog) fail(o op, format string, args ...any) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = kindNames[o.kind] + ": " + fmt.Sprintf(format, args...)
	}
}

// client is one caller of cqpd: one keep-alive connection, one request in
// flight, the next sent only when the reply to the last has been read.
type client struct {
	e    *env
	http *http.Client
	req  []byte
	resp bytes.Buffer
}

func newClient(e *env) *client {
	return &client{e: e, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send issues one request and reads the whole reply. The returned body is
// only valid until the next send. root, when non-zero, is the request's
// root span and handler the id the wrapper records its span under; both
// travel in a header.
func (c *client) send(o op, root, handler uint64) (status int, body []byte, err error) {
	method, path, reqBody := c.e.request(c.req[:0], o)
	c.req = reqBody
	req, err := http.NewRequest(method, c.e.ts.URL+path, bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, err
	}
	if method != "GET" {
		req.Header.Set("Content-Type", "application/json")
	}
	if root != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(root, 10)+"."+strconv.FormatUint(handler, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}

// run sends ops in order until they run out or the deadline passes (zero
// means no deadline), timing each from send to last byte read.
func (c *client) run(ops []op, deadline time.Time, traced bool, log *clientLog) {
	log.latencies = make([]time.Duration, 0, len(ops))
	log.exhausted = !deadline.IsZero()
	for _, o := range ops {
		var root, handler uint64
		if traced {
			root, handler = c.e.tracer.newID(), c.e.tracer.newID()
		}
		start := time.Now()
		status, body, err := c.send(o, root, handler)
		end := time.Now()
		log.latencies = append(log.latencies, end.Sub(start))
		if traced {
			c.e.tracer.add(root, 0, root, "roundtrip", start, end)
		}
		switch {
		case err != nil:
			log.fail(o, "%v", err)
		case status/100 != 2:
			log.fail(o, "status %d: %.200s", status, body)
		default:
			if o.sample {
				log.sampled = append(log.sampled, reply{o, status, bytes.Clone(body)})
			}
			if o.kind == opProfilePut {
				log.puts = append(log.puts, reply{o, status, bytes.Clone(body)})
			}
		}
		if !deadline.IsZero() && end.After(deadline) {
			log.exhausted = false
			break
		}
	}
	log.end = time.Now()
}

// window is one closed-loop measurement: every client's log plus the
// process-wide resource deltas over it.
type window struct {
	logs  [clients]clientLog
	wall  time.Duration
	used  usage // deltas
	ops   int
	stats map[string]int64 // server counter deltas, read once after the window
}

// drive runs the clients over their streams for at most d (zero: until the
// streams run out) and returns what they saw.
func (e *env) drive(streams [clients][]op, d time.Duration, traced bool) *window {
	w := &window{}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(e)
		defer cs[i].close()
	}
	counters := e.counters()
	before := readUsage()
	start := time.Now()
	var deadline time.Time
	if d > 0 {
		deadline = start.Add(d)
	}
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs[i].run(streams[i], deadline, traced, &w.logs[i])
		}()
	}
	wg.Wait()
	end := start
	for i := range w.logs {
		if w.logs[i].end.After(end) {
			end = w.logs[i].end
		}
		w.ops += len(w.logs[i].latencies)
	}
	after := readUsage()
	w.wall = end.Sub(start)
	w.used = usage{cpu: after.cpu - before.cpu, bytes: after.bytes - before.bytes, mallocs: after.mallocs - before.mallocs}
	w.stats = e.counters()
	for k, v := range counters {
		w.stats[k] -= v
	}
	return w
}

// failed sums the clients' failures; firstErr is the first one's text.
func (w *window) failed() (n int, firstErr string) {
	for i := range w.logs {
		n += w.logs[i].failed
		if firstErr == "" {
			firstErr = w.logs[i].firstErr
		}
	}
	return n, firstErr
}

// latenciesMS returns every timed latency in milliseconds, ascending.
func (w *window) latenciesMS() []float64 {
	out := make([]float64, 0, w.ops)
	for i := range w.logs {
		for _, d := range w.logs[i].latencies {
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// counterNames are the registry counters the per-layer counts are built
// from. Several are labelled by endpoint, algorithm or rung; counters sums
// each family over its labels.
var counterNames = map[string]bool{
	"server_cache_hits": true, "server_cache_misses": true, "server_cache_evictions_total": true,
	"coalesce_followers_total": true, "coalesce_leaders_total": true,
	"estimate_memo_hits_total": true, "estimate_memo_misses_total": true,
	"search_states_visited_total": true,
	"exec_block_reads_total":      true, "exec_rows_returned_total": true,
	"server_shed_total": true, "server_degraded_total": true,
	"wal_snapshots_total": true,
}

// counters reads the server's registry.
func (e *env) counters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, m := range e.srv.Registry().Snapshot() {
		if m.Kind == "counter" && counterNames[m.Name] {
			out[m.Name] += m.Value
		}
	}
	return out
}
