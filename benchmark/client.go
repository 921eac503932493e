package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
)

// call times one public call into the program: a request span when
// tracing, and the call's start and end for the latency samples.
type call struct {
	tr         *tracer
	req        int64
	span       int
	start, end time.Time
}

func (c *call) run(ctx context.Context, name string, f func(ctx context.Context)) {
	c.req = c.tr.newReq()
	c.span = c.tr.open(name, -1, c.req)
	if c.span >= 0 {
		ctx = withSpan(ctx, c.span, c.req)
	}
	c.start = time.Now()
	f(ctx)
	c.end = time.Now()
	c.tr.close(c.span)
}

// wire is one window's answer as the client received it.
type wire struct {
	probs        []float64
	cluster      int // -1 until assignment
	personalized bool
	degraded     bool
	reassigned   bool
	batch        int
	queueWait    time.Duration
	resp         *serve.WindowResponse // HTTP only: the decoded body
}

// client is how a workload reaches the server: in process, or through the
// HTTP handler. Every method times exactly the program's call in c.
type client interface {
	create(ctx context.Context, c *call, u *user) (handle, error)
	push(ctx context.Context, c *call, h handle, w *window) (wire, error)
	labels(ctx context.Context, c *call, h handle, labels map[int]int) error
	personalized(ctx context.Context, h handle) (bool, error)
	close(ctx context.Context, c *call, h handle) error
}

// handle names a session: its id, and the session itself in process.
type handle struct {
	id string
	s  *serve.Session
}

// inproc calls the serve.Server API directly.
type inproc struct {
	srv *serve.Server
}

func (p inproc) create(ctx context.Context, c *call, u *user) (handle, error) {
	var s *serve.Session
	var err error
	c.run(ctx, "req.create", func(ctx context.Context) {
		s, err = p.srv.CreateSessionCtx(ctx, u.id, len(u.windows), 0)
	})
	if err != nil {
		return handle{}, err
	}
	return handle{id: s.ID(), s: s}, nil
}

func (p inproc) push(ctx context.Context, c *call, h handle, w *window) (wire, error) {
	var res serve.WindowResult
	var err error
	c.run(ctx, "req.window", func(ctx context.Context) {
		res, err = h.s.PushWindowCtx(ctx, w.m)
	})
	if err != nil {
		return wire{}, err
	}
	out := wire{probs: res.Probs, cluster: -1, personalized: res.Personalized, degraded: res.Degraded,
		reassigned: res.Reassigned, batch: res.BatchSize, queueWait: res.QueueWait}
	if res.Assignment != nil {
		out.cluster = res.Assignment.Cluster
	}
	if c.tr != nil {
		out.resp = response(res)
	}
	return out, nil
}

func (p inproc) labels(ctx context.Context, c *call, h handle, labels map[int]int) error {
	var res serve.LabelsResult
	var err error
	c.run(ctx, "req.labels", func(ctx context.Context) {
		res, err = h.s.PushLabelsCtx(ctx, labels)
	})
	if err == nil && !res.FineTuneQueued {
		err = fmt.Errorf("labels accepted but no fine-tune queued")
	}
	return err
}

// personalized reads the session state: the fine-tune worker moves a
// session to monitoring in the same critical section that marks it
// personalised.
func (p inproc) personalized(ctx context.Context, h handle) (bool, error) {
	return h.s.State() == serve.StateMonitoring, nil
}

func (p inproc) close(ctx context.Context, c *call, h handle) error {
	var err error
	c.run(ctx, "req.close", func(ctx context.Context) {
		err = p.srv.CloseSessionCtx(ctx, h.id)
	})
	return err
}

// httpc sends JSON bodies through the server's HTTP handler, in process.
type httpc struct {
	h http.Handler
}

func (p httpc) do(ctx context.Context, c *call, name, method, path string, body []byte, want int) ([]byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	if c == nil {
		p.h.ServeHTTP(rec, req.WithContext(ctx))
	} else {
		c.run(ctx, name, func(ctx context.Context) { p.h.ServeHTTP(rec, req.WithContext(ctx)) })
	}
	if rec.Code != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

func (p httpc) create(ctx context.Context, c *call, u *user) (handle, error) {
	body, err := json.Marshal(serve.CreateSessionRequest{UserID: u.id, ExpectedWindows: len(u.windows)})
	if err != nil {
		return handle{}, err
	}
	out, err := p.do(ctx, c, "req.create", http.MethodPost, "/v1/sessions", body, http.StatusCreated)
	if err != nil {
		return handle{}, err
	}
	var resp serve.CreateSessionResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return handle{}, fmt.Errorf("decode create response: %w", err)
	}
	return handle{id: resp.ID}, nil
}

func (p httpc) push(ctx context.Context, c *call, h handle, w *window) (wire, error) {
	out, err := p.do(ctx, c, "req.window", http.MethodPost, "/v1/sessions/"+h.id+"/windows", w.body, http.StatusOK)
	if err != nil {
		return wire{}, err
	}
	resp := new(serve.WindowResponse)
	if err := json.Unmarshal(out, resp); err != nil {
		return wire{}, fmt.Errorf("decode window response: %w", err)
	}
	res := wire{probs: resp.Probs, cluster: -1, personalized: resp.Personalized, degraded: resp.Degraded,
		reassigned: resp.Reassigned, batch: resp.BatchSize,
		queueWait: time.Duration(resp.QueueWaitUS) * time.Microsecond, resp: resp}
	if resp.Cluster != nil {
		res.cluster = *resp.Cluster
	}
	return res, nil
}

func (p httpc) labels(ctx context.Context, c *call, h handle, labels map[int]int) error {
	body, err := json.Marshal(serve.LabelsPayload{Labels: labels})
	if err != nil {
		return err
	}
	out, err := p.do(ctx, c, "req.labels", http.MethodPost, "/v1/sessions/"+h.id+"/labels", body, http.StatusOK)
	if err != nil {
		return err
	}
	var resp serve.LabelsResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("decode labels response: %w", err)
	}
	if !resp.FineTuneQueued {
		return fmt.Errorf("labels accepted but no fine-tune queued")
	}
	return nil
}

func (p httpc) personalized(ctx context.Context, h handle) (bool, error) {
	out, err := p.do(ctx, nil, "", http.MethodGet, "/v1/sessions/"+h.id, nil, http.StatusOK)
	if err != nil {
		return false, err
	}
	var st struct {
		Personalized bool `json:"personalized"`
	}
	if err := json.Unmarshal(out, &st); err != nil {
		return false, fmt.Errorf("decode status: %w", err)
	}
	return st.Personalized, nil
}

func (p httpc) close(ctx context.Context, c *call, h handle) error {
	_, err := p.do(ctx, c, "req.close", http.MethodDelete, "/v1/sessions/"+h.id, nil, http.StatusNoContent)
	return err
}

// response builds the body the HTTP handler would encode for res, so a
// traced in-process run can replay the codec on real answers.
func response(res serve.WindowResult) *serve.WindowResponse {
	resp := &serve.WindowResponse{
		State: res.State.String(), Windows: res.Windows, Personalized: res.Personalized,
		Degraded: res.Degraded, Imputed: res.Imputed, Reassigned: res.Reassigned,
		BatchSize: res.BatchSize, QueueWaitUS: res.QueueWait.Microseconds(), Probs: res.Probs,
	}
	if res.Assignment != nil {
		c, mg := res.Assignment.Cluster, res.Assignment.Margin()
		resp.Cluster, resp.Scores, resp.Margin = &c, res.Assignment.Scores, &mg
	}
	if res.Event != nil {
		raw, smooth, alarm := res.Event.RawProb, res.Event.SmoothProb, res.Event.Alarm
		resp.RawProb, resp.SmoothProb, resp.Alarm = &raw, &smooth, &alarm
	}
	return resp
}
