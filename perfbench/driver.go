package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dust/internal/datagen"
	"dust/internal/table"
)

// Request classes.
const (
	classSearch = "search"
	classPut    = "put"
	classDelete = "delete"
)

// op is one planned request, fully materialised before the clock starts.
type op struct {
	class string
	query *table.Table  // search: the query exactly as the server decodes it
	body  []byte        // search and put
	name  string        // put and delete: the table
	table *table.Table  // put: the table exactly as the server decodes it
	done  chan struct{} // put: closed once its request has returned
	after *op           // delete: the put creating the table
}

// sample is the outcome of one request.
type sample struct {
	op      *op
	late    time.Duration // open loop: dispatch time minus scheduled time
	latency float64       // ms from scheduled (open) or sent (closed) to body read; +Inf on failure
	body    []byte
	failure string // empty when the request succeeded and passed its checks
	epoch   uint64 // the index epoch the response reports
	resp    *searchResponse
}

func (s *sample) fail(format string, args ...any) {
	if s.failure == "" {
		s.failure = fmt.Sprintf(format, args...)
	}
	s.latency = math.Inf(1)
}

// wire is the serve layer's table body.
type wire struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func toWire(t *table.Table) wire {
	rows := make([][]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return wire{Headers: t.Headers(), Rows: rows}
}

// fromWire builds a table the way the server decodes a request body.
func fromWire(name string, w wire) *table.Table {
	t := table.New(name, w.Headers...)
	for _, r := range w.Rows {
		if err := t.AppendRow(r); err != nil {
			panic(err) // rows come from a table of the same arity
		}
	}
	return t
}

// queryIndex spreads query j over the lake: 97 is coprime to both lake
// sizes, so consecutive j sample distinct base tables.
func queryIndex(j int) int { return 13 + 97*j }

// searchOp builds the search for the spec's query i.
func searchOp(spec datagen.LakeSpec, i int) *op {
	w := toWire(spec.Query(i))
	body, err := json.Marshal(struct {
		Query wire `json:"query"`
		K     int  `json:"k"`
	}{w, k})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return &op{class: classSearch, query: fromWire("query", w), body: body}
}

// searchOps returns the distinct searches j in [from, to), failing if two
// bodies coincide (a repeat would be served from the cache).
func searchOps(spec datagen.LakeSpec, from, to int, seen map[string]bool) ([]*op, error) {
	var ops []*op
	for j := from; j < to; j++ {
		o := searchOp(spec, queryIndex(j))
		key := string(o.body)
		if seen[key] {
			return nil, fmt.Errorf("query %d repeats an earlier query", j)
		}
		seen[key] = true
		ops = append(ops, o)
	}
	return ops, nil
}

// putSeq mints the tables a run PUTs: fresh tables from the lake's own
// distribution, past its last index, under names nothing else uses.
type putSeq struct {
	spec datagen.LakeSpec
	n    int
}

func (p *putSeq) next() *op {
	name := fmt.Sprintf("bench_%06d", p.n)
	w := toWire(p.spec.Table(p.spec.Tables + p.n))
	p.n++
	body, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	return &op{class: classPut, name: name, body: body, table: fromWire(name, w),
		done: make(chan struct{})}
}

// planWrites lays out n requests by repeating pattern, where 's' is a
// search (from search), 'p' a PUT of a fresh table and 'd' a DELETE of
// the oldest table this plan PUT and has not yet deleted. A fixed pattern,
// rather than a random draw per request, keeps every seed's mix and
// overlap of reads and writes the same. The pattern never deletes more
// tables than it has put.
func planWrites(n int, pattern string, search func() *op, puts *putSeq) []*op {
	ops := make([]*op, 0, n)
	var live []*op
	for i := 0; i < n; i++ {
		switch pattern[i%len(pattern)] {
		case 's':
			ops = append(ops, search())
		case 'p':
			live = append(live, puts.next())
			ops = append(ops, live[len(live)-1])
		default:
			ops = append(ops, &op{class: classDelete, name: live[0].name, after: live[0]})
			live = live[1:]
		}
	}
	return ops
}

// client issues requests over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches path and decodes its JSON body into v.
func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fire sends s's request and records the response body; the caller sets the
// latency. Transport errors and unexpected statuses fail the sample.
func (c *client) fire(s *sample) {
	o := s.op
	method, path, want := http.MethodPost, "/search", http.StatusOK
	switch o.class {
	case classPut:
		method, path, want = http.MethodPut, "/tables/"+o.name, http.StatusCreated
	case classDelete:
		method, path = http.MethodDelete, "/tables/"+o.name
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(o.body))
	if err != nil {
		s.fail("build request: %v", err)
		return
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.fail("%s %s: %v", method, path, err)
		return
	}
	defer resp.Body.Close()
	s.body, err = io.ReadAll(resp.Body)
	switch {
	case err != nil:
		s.fail("%s %s: read body: %v", method, path, err)
	case resp.StatusCode != want:
		s.fail("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(s.body))
	}
}

// openLoop sends ops at the given rate, each at its scheduled instant
// whether or not earlier ones have returned, and times each from that
// instant. Request i is due at a uniformly random point of the middle
// half of the i-th slot of length 1/rate: arrivals vary with the seed,
// but consecutive ones are at least half a slot apart. With Poisson
// arrivals, how often requests overlapped varied from seed to seed more
// than any effect worth measuring.
func (c *client) openLoop(ops []*op, rate float64, rng *rand.Rand) []*sample {
	due := make([]time.Duration, len(ops))
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.25 + rng.Float64()/2) / rate * float64(time.Second))
	}
	out := make([]*sample, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		when := start.Add(due[i])
		time.Sleep(time.Until(when))
		wg.Add(1)
		out[i] = &sample{op: ops[i]}
		go func(s *sample) {
			defer wg.Done()
			s.late = time.Since(when)
			c.send(s, when)
		}(out[i])
	}
	wg.Wait()
	return out
}

// send issues s's request once the PUT it depends on, if any, has
// returned, and times it from the instant from.
func (c *client) send(s *sample, from time.Time) {
	if s.op.after != nil {
		<-s.op.after.done
	}
	c.fire(s)
	if s.failure == "" {
		s.latency = ms(time.Since(from))
	}
	if s.op.done != nil {
		close(s.op.done)
	}
}

// closedLoop sends ops from conns clients, each sending its next request
// once the previous one returned, and reports the phase's wall time.
func (c *client) closedLoop(ops []*op, conns int) ([]*sample, time.Duration) {
	out := make([]*sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				out[i] = &sample{op: ops[i]}
				c.send(out[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; +Inf values (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
