package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// span is one timed interval of a traced run. Parent indexes the enclosing
// span (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newReq allocates a request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// open starts a span now and returns its index; close ends it.
func (t *tracer) open(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.base).Nanoseconds(),
		End: end.Sub(t.base).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// time runs f as a span under parent.
func (t *tracer) time(name string, parent int, req int64, f func()) {
	i := t.open(name, parent, req)
	f()
	t.close(i)
}

// selfTimes returns every span's duration minus its children's durations.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef travels in a request's context so the store decorator can parent
// its spans under the request that caused the write.
type spanRef struct {
	idx int
	req int64
}

type spanKey struct{}

func withSpan(ctx context.Context, idx int, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{idx: idx, req: req})
}

func spanOf(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{idx: -1}
}

// timedStore decorates a store with counts, bytes and per-call times. The
// server calls it exactly as it would call the wrapped store.
type timedStore struct {
	store.Store
	tr *tracer

	mu         sync.Mutex
	ops        int64
	bytes      int64
	putSession []time.Duration
	lock       []time.Duration
	checkpoint []time.Duration
	// blobs accumulates PutBlob time per caller context until the
	// PutCheckpoint that publishes those blobs arrives.
	blobs map[context.Context]time.Duration
}

func newTimedStore(inner store.Store, tr *tracer) *timedStore {
	return &timedStore{Store: inner, tr: tr, blobs: map[context.Context]time.Duration{}}
}

// done records one op: a span under the caller's request when tracing, and
// the op and byte counters always.
func (s *timedStore) done(ctx context.Context, name string, start time.Time, n int) time.Duration {
	end := time.Now()
	ref := spanOf(ctx)
	s.tr.add(name, start, end, ref.idx, ref.req)
	s.mu.Lock()
	s.ops++
	s.bytes += int64(n)
	s.mu.Unlock()
	return end.Sub(start)
}

func (s *timedStore) PutSession(ctx context.Context, id string, data []byte) error {
	t0 := time.Now()
	err := s.Store.PutSession(ctx, id, data)
	d := s.done(ctx, "store.put_session", t0, len(data))
	s.mu.Lock()
	s.putSession = append(s.putSession, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) PutSessionFenced(ctx context.Context, id string, f store.Fence, data []byte) error {
	t0 := time.Now()
	err := s.Store.PutSessionFenced(ctx, id, f, data)
	d := s.done(ctx, "store.put_session", t0, len(data))
	s.mu.Lock()
	s.putSession = append(s.putSession, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) GetSession(ctx context.Context, id string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.GetSession(ctx, id)
	s.done(ctx, "store.get_session", t0, 0)
	return b, err
}

func (s *timedStore) DeleteSession(ctx context.Context, id string) error {
	t0 := time.Now()
	err := s.Store.DeleteSession(ctx, id)
	s.done(ctx, "store.delete_session", t0, 0)
	return err
}

func (s *timedStore) PutBlob(ctx context.Context, data []byte) (store.Digest, bool, error) {
	t0 := time.Now()
	d, created, err := s.Store.PutBlob(ctx, data)
	dur := s.done(ctx, "store.put_blob", t0, len(data))
	s.mu.Lock()
	s.blobs[ctx] += dur
	s.mu.Unlock()
	return d, created, err
}

func (s *timedStore) PutCheckpoint(ctx context.Context, ck store.Checkpoint) error {
	t0 := time.Now()
	err := s.Store.PutCheckpoint(ctx, ck)
	dur := s.done(ctx, "store.put_checkpoint", t0, len(ck.Key)+len(ck.Base)+len(ck.Fine))
	s.mu.Lock()
	s.checkpoint = append(s.checkpoint, dur+s.blobs[ctx])
	delete(s.blobs, ctx)
	s.mu.Unlock()
	return err
}

func (s *timedStore) DeleteCheckpoint(ctx context.Context, key string) error {
	t0 := time.Now()
	err := s.Store.DeleteCheckpoint(ctx, key)
	s.done(ctx, "store.delete_checkpoint", t0, 0)
	return err
}

func (s *timedStore) Lock(ctx context.Context, key, owner string, ttl time.Duration) (store.Lease, error) {
	t0 := time.Now()
	l, err := s.Store.Lock(ctx, key, owner, ttl)
	d := s.done(ctx, "store.lock", t0, 0)
	s.mu.Lock()
	s.lock = append(s.lock, d)
	s.mu.Unlock()
	return l, err
}

// storeStats is what the decorator saw over one run.
type storeStats struct {
	ops, bytes                   int64
	putSession, lock, checkpoint []time.Duration
}

func (s *timedStore) stats() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeStats{ops: s.ops, bytes: s.bytes, putSession: append([]time.Duration(nil), s.putSession...),
		lock: append([]time.Duration(nil), s.lock...), checkpoint: append([]time.Duration(nil), s.checkpoint...)}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mustf(err error, format string, args ...any) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+": %v\n", append(args, err)...)
		os.Exit(1)
	}
}
