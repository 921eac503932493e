package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/edge"
	"repro/internal/store"
	"repro/internal/wemac"
)

// spec is what distinguishes the workloads; BENCHMARK.json records why
// each was chosen. Everything else about the server is serve.Config
// defaults.
type spec struct {
	name     string
	device   edge.Device
	store    bool // serve from a timed mem store
	http     bool // send raw recordings through the HTTP handler
	openLoop bool // 64 scheduled sessions instead of one serial client
}

var specs = []spec{
	{name: "stream_map", device: edge.GPU()},
	{name: "stream_raw", device: edge.GPU(), http: true},
	{name: "population", device: edge.CoralTPU(), store: true, openLoop: true},
}

const (
	// sessions is the population's concurrency; each session is one
	// goroutine sending on its own schedule.
	sessions = 64
	// labelFrac is the labelled budget: a session labels its first 20 %
	// of windows, which triggers the on-device fine-tune.
	labelFrac = 0.2
	// assignFrac is serve.Config's default unlabelled budget: the window
	// that completes it triggers cold-start assignment.
	assignFrac = 0.1
	// pollEvery is the personalisation poll interval. Personalisation
	// takes milliseconds, so the poll must be well under a tenth of that.
	pollEvery = 50 * time.Microsecond
	// personalizeDeadline bounds the wait for a fine-tune to land.
	personalizeDeadline = 10 * time.Second
	// streamWarmup lets caches fill and the executor settle before a
	// closed loop is measured.
	streamWarmup = time.Second
	// probeRounds is how many personalisation probes a stream interleaves
	// with its measured interval.
	probeRounds = 6
	// tick is the length of a measured segment. Rates, medians and costs
	// are the median of their per-segment values, so a stretch in which the
	// machine runs slow moves them less than it moves a mean.
	tick = time.Second
	// tailChunk is how many consecutive latency samples each p90 estimate
	// takes: ten lie beyond the percentile. A p99 tracks how often the host
	// stalls a window to twice its time, which varies from run to run far
	// more than the program does.
	tailChunk = 100
)

// lifecycle is one session from create to close, as the client saw it.
type lifecycle struct {
	user       int
	cluster    int // the last cluster the server reported; -1 before assignment
	ftCluster  int // the cluster when labels were pushed
	labelled   int // how many leading windows were labelled
	reassigned bool
}

// reply is one answered window.
type reply struct {
	lc              *lifecycle
	win             int
	due, start, end time.Time
	ans             wire
	served          int  // the cluster whose model answered; -1 while enrolling
	assignedNow     bool // this window triggered cold-start assignment
	req             int64
	span            int
}

// personalization is one labels push and when the session first reported
// its personalised model.
type personalization struct {
	lc         *lifecycle
	req        int64
	start, end time.Time
}

// snap is the process's CPU and allocation counters at one instant.
type snap struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func takeSnap() snap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{
		t:       time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// runResult is everything one run measured.
type runResult struct {
	// segs are the measured segments, each a tick long, with the counters
	// at both ends. A stream's segments leave gaps where it pauses to probe
	// personalisation.
	segs        []segment
	replies     []*reply
	personalize []personalization
	sendLate    []time.Duration
	attempted   int
	failed      int
	failures    []string
	store       *storeStats
	users       []*user
	openLoop    bool
}

// segment is one measured stretch and the counters at its ends.
type segment struct{ a, b snap }

// sent is when a reply's latency sample starts: the due time in an open
// loop, the call otherwise.
func (r *runResult) sent(rp *reply) time.Time {
	if r.openLoop {
		return rp.due
	}
	return rp.start
}

// segment returns the measured segment a reply's latency sample falls in,
// or -1.
func (r *runResult) segment(rp *reply) int {
	t := r.sent(rp)
	i := sort.Search(len(r.segs), func(i int) bool { return r.segs[i].b.t.After(t) })
	if i < len(r.segs) && !t.Before(r.segs[i].a.t) {
		return i
	}
	return -1
}

func (r *runResult) measured(rp *reply) bool { return r.segment(rp) >= 0 }

// t0 and t1 are the start and end of the measured interval.
func (r *runResult) t0() time.Time { return r.segs[0].a.t }
func (r *runResult) t1() time.Time { return r.segs[len(r.segs)-1].b.t }

// latency is the reply's latency sample.
func (r *runResult) latency(rp *reply) time.Duration { return rp.end.Sub(r.sent(rp)) }

// ticks snapshots the counters at t0 and every tick after it until
// seconds have passed, appending one segment per tick (a single segment
// when seconds is shorter than a tick). It closes done after the last
// snapshot.
func (r *run) ticks(t0 time.Time, seconds time.Duration, done chan<- struct{}) {
	defer close(done)
	step, n := tick, int(seconds/tick)
	if n == 0 {
		step, n = seconds, 1
	}
	time.Sleep(time.Until(t0))
	a := takeSnap()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * step)))
		b := takeSnap()
		r.mu.Lock()
		r.res.segs = append(r.res.segs, segment{a, b})
		r.mu.Unlock()
		a = b
	}
}

// run is one workload execution against one server.
type run struct {
	cl    client
	tr    *tracer
	users []*user

	mu  sync.Mutex
	res runResult
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.failed++
	if len(r.res.failures) < 20 {
		r.res.failures = append(r.res.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.res.attempted++
	r.mu.Unlock()
}

func (r *run) late(d time.Duration) {
	r.mu.Lock()
	r.res.sendLate = append(r.res.sendLate, d)
	r.mu.Unlock()
}

// session is one client's view of a lifecycle in progress.
type session struct {
	h        handle
	lc       *lifecycle
	prevDone time.Time // end of this client's previous call
}

// send records how late the generator sent: the send time minus the later
// of the due time and the previous reply.
func (r *run) send(s *session, due time.Time) {
	ref := due
	if s.prevDone.After(ref) {
		ref = s.prevDone
	}
	if !s.prevDone.IsZero() {
		r.late(time.Since(ref))
	}
}

func (r *run) create(ctx context.Context, s *session, ui int, due time.Time) bool {
	r.attempt()
	r.send(s, due)
	var c call
	c.tr = r.tr
	h, err := r.cl.create(ctx, &c, r.users[ui])
	s.prevDone = time.Now()
	if err != nil {
		r.fail("create user %d: %v", r.users[ui].id, err)
		return false
	}
	s.h = h
	s.lc = &lifecycle{user: ui, cluster: -1, ftCluster: -1}
	return true
}

func (r *run) push(ctx context.Context, s *session, wi int, due time.Time) bool {
	r.attempt()
	r.send(s, due)
	var c call
	c.tr = r.tr
	w := &r.users[s.lc.user].windows[wi]
	ans, err := r.cl.push(ctx, &c, s.h, w)
	s.prevDone = c.end
	if err != nil {
		r.fail("window %d of user %d: %v", wi, r.users[s.lc.user].id, err)
		return false
	}
	if due.IsZero() {
		due = c.start
	}
	rp := &reply{lc: s.lc, win: wi, due: due, start: c.start, end: c.end, ans: ans,
		served: -1, req: c.req, span: c.span}
	if ans.cluster >= 0 {
		rp.assignedNow = s.lc.cluster < 0
		rp.served = ans.cluster
		if ans.reassigned {
			// The window that confirms a drift verdict was served by the
			// cluster the session is leaving.
			rp.served = s.lc.cluster
			s.lc.reassigned = true
		}
		s.lc.cluster = ans.cluster
	}
	r.mu.Lock()
	r.res.replies = append(r.res.replies, rp)
	r.mu.Unlock()
	return true
}

// label pushes ground truth for the lifecycle's first n windows.
func (r *run) label(ctx context.Context, s *session, n int) (personalization, bool) {
	r.attempt()
	r.send(s, time.Time{})
	u := r.users[s.lc.user]
	labels := make(map[int]int, n)
	for i := 0; i < n; i++ {
		labels[i] = u.windows[i].label
	}
	var c call
	c.tr = r.tr
	err := r.cl.labels(ctx, &c, s.h, labels)
	s.prevDone = c.end
	if err != nil {
		r.fail("labels for user %d: %v", u.id, err)
		return personalization{}, false
	}
	s.lc.labelled = n
	s.lc.ftCluster = s.lc.cluster
	return personalization{lc: s.lc, req: c.req, start: c.start}, true
}

func (r *run) close(ctx context.Context, s *session) {
	r.attempt()
	var c call
	c.tr = r.tr
	if err := r.cl.close(ctx, &c, s.h); err != nil {
		r.fail("close user %d: %v", r.users[s.lc.user].id, err)
	}
	s.prevDone = c.end
}

// awaitPersonalized polls until the session reports its personalised
// model, and returns when it did.
func (r *run) awaitPersonalized(ctx context.Context, h handle, p personalization) (time.Time, bool) {
	deadline := p.start.Add(personalizeDeadline)
	for {
		ok, err := r.cl.personalized(ctx, h)
		now := time.Now()
		if err != nil {
			r.fail("personalisation poll for user %d: %v", r.users[p.lc.user].id, err)
			return now, false
		}
		if ok {
			return now, true
		}
		if now.After(deadline) {
			r.fail("user %d not personalised within %v", r.users[p.lc.user].id, personalizeDeadline)
			return now, false
		}
		time.Sleep(pollEvery)
	}
}

func (r *run) personalized(p personalization) {
	r.mu.Lock()
	r.res.personalize = append(r.res.personalize, p)
	r.mu.Unlock()
}

func labelWindows(n int) int { return wemac.BudgetWindows(n, labelFrac) }

// stream is the closed loop: one client streams every user in turn. The
// measured interval is cut into probeRounds parts; after each, the client
// personalises the next slice of users, one at a time, so personalisation
// is sampled across the whole run like everything else.
func (r *run) stream(ctx context.Context, seconds time.Duration) {
	var s session
	ui, wi := 0, 0
	// streamFor streams until d has passed, continuing the open lifecycle.
	streamFor := func(d time.Duration) {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			if wi == 0 && !r.create(ctx, &s, ui, time.Time{}) {
				ui = (ui + 1) % len(r.users)
				continue
			}
			r.push(ctx, &s, wi, time.Time{})
			if wi++; wi == len(r.users[ui].windows) {
				r.close(ctx, &s)
				ui, wi = (ui+1)%len(r.users), 0
			}
		}
	}
	streamFor(streamWarmup)
	round := seconds / probeRounds
	for k := 0; k < probeRounds; k++ {
		done := make(chan struct{})
		go r.ticks(time.Now(), round, done)
		streamFor(round)
		<-done
		for pu := k * len(r.users) / probeRounds; pu < (k+1)*len(r.users)/probeRounds; pu++ {
			r.probe(ctx, pu)
		}
	}
	if wi > 0 {
		r.close(ctx, &s)
	}
}

// probe personalises one user with nothing else in flight: stream the
// labelled windows, label them, and wait for the personalised model.
func (r *run) probe(ctx context.Context, ui int) {
	var s session
	if !r.create(ctx, &s, ui, time.Time{}) {
		return
	}
	defer r.close(ctx, &s)
	n := labelWindows(len(r.users[ui].windows))
	for wi := 0; wi < n; wi++ {
		if !r.push(ctx, &s, wi, time.Time{}) {
			return
		}
	}
	if p, ok := r.label(ctx, &s, n); ok {
		if end, ok := r.awaitPersonalized(ctx, s.h, p); ok {
			p.end = end
			r.personalized(p)
		}
	}
}

// population is the open loop: sessions goroutines, each sending its next
// window on a fixed schedule, staggered so lifecycle phases are spread
// evenly, measured after every session has started.
func (r *run) population(ctx context.Context, seconds time.Duration, rate float64) {
	period := time.Duration(float64(sessions) / rate * float64(time.Second))
	perUser := len(r.users[0].windows)
	lifetime := time.Duration(perUser) * period
	base := time.Now().Add(10 * time.Millisecond)
	t0 := base.Add(lifetime + streamWarmup)
	t1 := t0.Add(seconds)
	if seconds >= tick {
		t1 = t0.Add(seconds / tick * tick)
	}
	done := make(chan struct{})
	go r.ticks(t0, seconds, done)

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.populationSession(ctx, i, base.Add(time.Duration(i)*lifetime/sessions), period, t1)
		}(i)
	}
	<-done
	wg.Wait()
}

func (r *run) populationSession(ctx context.Context, i int, start time.Time, period time.Duration, t1 time.Time) {
	k := 0
	due := func() time.Time { return start.Add(time.Duration(k) * period) }
	for life := 0; ; life++ {
		if !due().Before(t1) {
			return
		}
		ui := (i + life) % len(r.users)
		u := r.users[ui]
		n := labelWindows(len(u.windows))
		var s session
		time.Sleep(time.Until(due()))
		if !r.create(ctx, &s, ui, due()) {
			k++
			continue
		}
		var pending *personalization
		pdone := make(chan struct{})
		for wi := range u.windows {
			d := due()
			if !d.Before(t1) {
				break
			}
			k++
			time.Sleep(time.Until(d))
			if !r.push(ctx, &s, wi, d) {
				continue
			}
			if wi == n-1 {
				if p, ok := r.label(ctx, &s, n); ok {
					pending = &p
					go func(h handle, p *personalization) {
						defer close(pdone)
						if end, ok := r.awaitPersonalized(ctx, h, *p); ok {
							p.end = end
							r.personalized(*p)
						}
					}(s.h, pending)
				}
			}
		}
		if pending != nil {
			<-pdone
		}
		r.close(ctx, &s)
	}
}

// execute runs one workload once against a fresh server.
func execute(sp spec, f *fixture, users []*user, seconds time.Duration, rate float64, tr *tracer) (*runResult, error) {
	var ts *timedStore
	var st store.Store
	if sp.store {
		ts = newTimedStore(store.NewMem(), tr)
		st = ts
	}
	srv, err := f.newServer(st)
	if err != nil {
		return nil, err
	}
	r := &run{tr: tr, users: users}
	r.res.users = users
	r.res.openLoop = sp.openLoop
	if sp.http {
		r.cl = httpc{h: srv.Handler()}
	} else {
		r.cl = inproc{srv: srv}
	}
	ctx := context.Background()
	if sp.openLoop {
		r.population(ctx, seconds, rate)
	} else {
		r.stream(ctx, seconds)
	}
	srv.Shutdown()
	if ts != nil {
		s := ts.stats()
		r.res.store = &s
		_ = ts.Close() // mem store: Close only marks it closed
	}
	return &r.res, nil
}
