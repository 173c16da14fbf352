package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"dust"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/serve"
)

type runConfig struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
}

// plan is a run's requests, fixed before any of them is sent.
type plan struct {
	open   []*op // open loop at w.rate
	closed []*op // closed loop, distinct searches
	probe  []*op // search-only workloads: writes from one closed-loop client
}

// makePlan derives every request from the seed, which orders the read
// workloads' searches, picks which hot query each churn search repeats,
// and (in openLoop) times the arrivals. Searches outside the hot pool are
// distinct, so none is answered from the result cache.
func makePlan(cfg runConfig, rng *rand.Rand) (plan, error) {
	w, spec := cfg.w, cfg.w.spec()
	nOpen := int(math.Round(w.rate * w.openSpan * float64(cfg.seconds)))
	nClosed := int(math.Round(w.closedRate * float64(cfg.seconds)))
	seen := map[string]bool{}
	puts := &putSeq{spec: spec}
	var pl plan
	var err error
	if w.churn {
		hot, err := searchOps(spec, 0, hotPool, seen)
		if err != nil {
			return pl, err
		}
		// Each hot query is repeated equally often, in an order drawn from
		// the seed: the hot queries' costs differ severalfold, so a draw
		// with replacement let the seed decide the cost of the mix.
		var bag []*op
		next := func() *op {
			if len(bag) == 0 {
				bag = append(bag, hot...)
				rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
			}
			o := bag[0]
			bag = bag[1:]
			return o
		}
		pl.open = planWrites(nOpen, "sspd", next, puts)
		pl.closed, err = searchOps(spec, hotPool, hotPool+nClosed, seen)
		return pl, err
	}
	if pl.open, err = searchOps(spec, 0, nOpen, seen); err != nil {
		return pl, err
	}
	rng.Shuffle(len(pl.open), func(i, j int) { pl.open[i], pl.open[j] = pl.open[j], pl.open[i] })
	if pl.closed, err = searchOps(spec, nOpen, nOpen+nClosed, seen); err != nil {
		return pl, err
	}
	pl.probe = planWrites(int(math.Round(w.probeOps*float64(cfg.seconds))), "pd", nil, puts)
	return pl, nil
}

// listener is one serving stack on a loopback port.
type listener struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func listen(srv *serve.Server, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// healthy waits until /healthz answers 200.
func (l *listener) healthy() error {
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(l.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down and waits for its serve loop to return.
func (l *listener) stop() {
	_ = l.hs.Close() // no request is in flight when a run stops its server
	if err := <-l.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	l.srv.Close()
}

// setUp times the contract's set-up: from handing the lake to dust.New
// until /healthz answers.
func setUp(lk *lake.Lake) (*dust.Pipeline, *listener, float64, error) {
	start := time.Now()
	p := dust.New(lk)
	srv := serve.New(p)
	l, err := listen(srv, srv)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := l.healthy(); err != nil {
		l.stop()
		return nil, nil, 0, err
	}
	return p, l, time.Since(start).Seconds(), nil
}

// handlerTimer wraps the server and records how long ServeHTTP takes for
// searches and for mutations.
type handlerTimer struct {
	next     http.Handler
	mu       sync.Mutex
	searches []float64
	mutates  []float64
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := ms(time.Since(start))
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/search":
		t.searches = append(t.searches, d)
	case r.Method == http.MethodPut || r.Method == http.MethodDelete:
		t.mutates = append(t.mutates, d)
	}
}

// takeSearches returns the search times recorded since the last call.
func (t *handlerTimer) takeSearches() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.searches
	t.searches = nil
	return s
}

func (t *handlerTimer) mutations() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mutates
}

// segment returns round r's share of ops when a run has n rounds.
func segment(ops []*op, r, n int) []*op {
	return ops[r*len(ops)/n : (r+1)*len(ops)/n]
}

// traffic is what one run sent and what the server said about it.
type traffic struct {
	open, closed, probe []*sample
	closedWall          time.Duration
	handlerSearch       []float64 // traced runs: ServeHTTP times of open-loop searches
	before, after       serve.StatsResponse
	heapBytes           uint64 // live heap after a forced GC, server still up
}

// drive sends the plan's phases round by round.
func drive(pl plan, w workload, l *listener, timer *handlerTimer, rng *rand.Rand) (traffic, error) {
	conns := runtime.NumCPU()
	c := newClient(l.base, conns)
	defer c.close()
	var t traffic
	if err := c.get("/stats", &t.before); err != nil {
		return t, err
	}
	for r := 0; r < w.rounds; r++ {
		t.open = append(t.open, c.openLoop(segment(pl.open, r, w.rounds), w.rate, rng)...)
		if timer != nil {
			t.handlerSearch = append(t.handlerSearch, timer.takeSearches()...)
		}
		closed, wall := c.closedLoop(segment(pl.closed, r, w.rounds), conns)
		t.closed = append(t.closed, closed...)
		t.closedWall += wall
		probe, _ := c.closedLoop(segment(pl.probe, r, w.rounds), 1)
		t.probe = append(t.probe, probe...)
		if timer != nil {
			timer.takeSearches() // closed-loop searches queue by design; not handler cost
		}
	}
	if err := c.get("/stats", &t.after); err != nil {
		return t, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.heapBytes = mem.HeapAlloc
	return t, nil
}

// run makes one benchmark run of cfg.
func run(cfg runConfig) (result, error) {
	w := cfg.w
	rng := rand.New(rand.NewSource(cfg.seed))
	pl, err := makePlan(cfg, rng)
	if err != nil {
		return result{}, fmt.Errorf("plan: %w", err)
	}
	conns := runtime.NumCPU()
	metrics := map[string]metric{}

	start := time.Now()
	lk := w.spec().Generate()
	metrics["datagen.generate_s"] = metric{time.Since(start).Seconds(), "s"}

	// Untraced runs time several set-ups; a traced run builds the searcher
	// itself, timed, so the replay can mirror it.
	var p *dust.Pipeline
	var l *listener
	var st *search.Starmie
	var timer *handlerTimer
	if cfg.trace {
		start = time.Now()
		st = search.NewStarmie(lk)
		metrics["search.build_s"] = metric{time.Since(start).Seconds(), "s"}
		p = dust.New(lk, dust.WithSearcher(st))
		srv := serve.New(p)
		timer = &handlerTimer{next: srv}
		if l, err = listen(srv, timer); err == nil {
			if err = l.healthy(); err != nil {
				l.stop()
			}
		}
	} else {
		var setups []float64
		for i := 0; i < w.setups && err == nil; i++ {
			if l != nil {
				l.stop()
				p, l = nil, nil
			}
			runtime.GC()
			var s float64
			if p, l, s, err = setUp(lk); err == nil {
				setups = append(setups, s)
			}
		}
		metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	}
	if err != nil {
		return result{}, fmt.Errorf("set up: %w", err)
	}
	t, err := drive(pl, w, l, timer, rng)
	l.stop()
	if err != nil {
		return result{}, err
	}

	// Output checks.
	all := concat(t.open, t.closed, t.probe)
	h, mutations := checkMutations(lk, all, t.before.Epoch)
	for _, s := range all {
		if s.op.class == classSearch {
			checkSearch(s, h)
		}
	}
	res := result{Attempted: len(all), Metrics: map[string]metric{}}
	writes := concat(t.open, t.probe)
	report := func(s string) { fmt.Fprintln(os.Stderr, "perfbench: "+s) }
	if cfg.trace {
		rep := replay(p, st, lk, t.open, mutations)
		rep.metrics(metrics)
		var late []float64
		for _, s := range t.open {
			late = append(late, ms(s.late))
		}
		hits := t.after.Cache.Hits - t.before.Cache.Hits
		lookups := hits + t.after.Cache.Misses - t.before.Cache.Misses
		metrics["serve.handler_ms"] = metric{quantile(t.handlerSearch, 0.5), "ms"}
		metrics["serve.mutate_ms"] = metric{quantile(timer.mutations(), 0.5), "ms"}
		metrics["serve.cache_hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
		metrics["serve.shed"] = metric{float64(t.after.Shed - t.before.Shed), "count"}
		metrics["serve.degraded"] = metric{float64(t.after.Degraded - t.before.Degraded), "count"}
		metrics["driver.late_ms"] = metric{quantile(late, 0.99), "ms"}
		// The write p90s sit where the share of slow writes (about one in
		// ten overlaps a collection or a search) decides which side of a
		// gap they fall on; they move too much between runs to bound.
		metrics["put_p90_ms"] = metric{quantile(latencies(writes, classPut), 0.9), "ms"}
		metrics["delete_p90_ms"] = metric{quantile(latencies(writes, classDelete), 0.9), "ms"}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if rep.failed > 0 {
			report(fmt.Sprintf("%d replay failures, first: %s", rep.failed, rep.firstFailure))
		}
		res.Metrics = metrics
	} else {
		// Byte-compare the distinct searches with the in-process result
		// at the state each was answered from.
		distinct := t.closed
		if !w.churn {
			distinct = concat(t.open, t.closed)
		}
		err := walk(p, mutations, distinct, apply, func(p *dust.Pipeline, ss []*sample) {
			checkBytes(p, ss, conns)
		})
		if err != nil {
			report(err.Error())
			res.Failed++
		}
		m := res.Metrics
		m["setup_s"] = metrics["setup_s"]
		m["heap_mb"] = metric{float64(t.heapBytes) / (1 << 20), "MiB"}
		m["search_p50_ms"] = metric{quantile(latencies(t.open, classSearch), 0.5), "ms"}
		m["search_p90_ms"] = metric{quantile(latencies(t.open, classSearch), 0.9), "ms"}
		m["search_qps"] = metric{float64(len(answered(t.closed))) / t.closedWall.Seconds(), "1/s"}
		m["put_p50_ms"] = metric{quantile(latencies(writes, classPut), 0.5), "ms"}
		m["delete_p50_ms"] = metric{quantile(latencies(writes, classDelete), 0.5), "ms"}
		m["avg_diversity"] = metric{avgDiversity(distinct), "score"}
	}
	res.Failed += failures(all, report)
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// JSON has no infinity: a failed request already made the
			// run incorrect, so report the largest finite number.
			res.Metrics[name] = metric{math.MaxFloat64, m.Unit}
			res.Correct = false
		}
	}
	return res, nil
}

// latencies returns the latencies of the samples of one request class.
func latencies(ss []*sample, class string) []float64 {
	var xs []float64
	for _, s := range ss {
		if s.op.class == class {
			xs = append(xs, s.latency)
		}
	}
	return xs
}

func concat(parts ...[]*sample) []*sample {
	var out []*sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
