package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/wemac"
)

// Replay bounds: enough calls for steady medians, few enough that the
// traced run stays short.
const (
	replayWindows       = 600
	replayPersonalizers = 48
	allocCalls          = 64
)

// nnLayers names the per-layer metrics of the CNN-LSTM forward pass, in
// layer order.
var nnLayers = []string{"conv2d_1", "maxpool_1", "conv2d_2", "maxpool_2", "lstm", "dense", "other"}

// layerNames maps each layer of m to its span name.
func layerNames(m *nn.Model) []string {
	names := make([]string, len(m.Layers))
	convs, pools := 0, 0
	for i, l := range m.Layers {
		switch l.(type) {
		case *nn.Conv2D:
			convs++
			names[i] = fmt.Sprintf("nn.conv2d_%d", convs)
		case *nn.MaxPool2D:
			pools++
			names[i] = fmt.Sprintf("nn.maxpool_%d", pools)
		case *nn.LSTM:
			names[i] = "nn.lstm"
		case *nn.Dense:
			names[i] = "nn.dense"
		case *quant.ActQuant:
			names[i] = "quant.act"
		default:
			names[i] = "nn.other"
		}
	}
	return names
}

// replayer re-runs answered requests through the public layer functions,
// recording each call as a span under the request it replays. Layers a
// workload does not run get no spans, so their metrics read 0 there.
type replayer struct {
	pipe    *core.Pipeline
	device  edge.Device
	http    bool
	tr      *tracer
	serving []*nn.Model // the cluster deployments at the workload's device
	names   []string    // span names of the serving deployment's layers
	// onPath marks request spans whose replay is complete, so their self
	// time is the serving residual.
	onPath map[int]bool
}

func newReplayer(pipe *core.Pipeline, device edge.Device, http bool, tr *tracer) *replayer {
	rp := &replayer{pipe: pipe, device: device, http: http, tr: tr, onPath: map[int]bool{}}
	for k := range pipe.Models {
		rp.serving = append(rp.serving, edge.Deploy(pipe.ModelFor(k), device).Model)
	}
	rp.names = layerNames(rp.serving[0])
	return rp
}

// window replays one classified window under its request span: the steps
// the program runs for it, in order. On the HTTP path it also splits the
// extraction by modality, beside the request, since ExtractMap runs all
// three inside one call.
func (r *replayer) window(rp *reply, w *window) {
	parent, req := rp.span, rp.req
	r.tr.add("serve.queue_wait", rp.start, rp.start.Add(rp.ans.queueWait), parent, req)
	if r.http {
		r.tr.time("http.decode", parent, req, func() {
			var p serve.WindowPayload
			mustf(json.Unmarshal(w.body, &p), "replay decode")
		})
		r.tr.time("features.extract_map", parent, req, func() {
			_, err := features.ExtractMap(w.rec, extractor)
			mustf(err, "replay extract")
		})
	}
	var x, bc *tensor.Tensor
	ai := r.tr.open("core.apply", parent, req)
	r.tr.time("features.baseline_correct", ai, req, func() { bc = features.BaselineCorrect(w.m) })
	r.tr.time("features.normalize", ai, req, func() { x = r.pipe.Norm.Apply(bc) })
	r.tr.close(ai)
	one := []*tensor.Tensor{w.m}
	r.tr.time("features.summary", parent, req, func() { features.Summary(one) })
	m := r.serving[rp.served]
	fi := r.tr.open("nn.forward", parent, req)
	for i, l := range m.Layers {
		r.tr.time(r.names[i], fi, req, func() { x = l.Forward(x, false) })
	}
	nn.Softmax(x.Data)
	r.tr.close(fi)
	if r.http {
		r.tr.time("http.encode", parent, req, func() {
			_, err := json.Marshal(rp.ans.resp)
			mustf(err, "replay encode")
		})
	}
	r.onPath[parent] = true

	if !r.http {
		return
	}
	off := r.tr.open("replay.modalities", -1, req)
	for _, win := range splitWindows(w.rec) {
		r.tr.time("features.bvp", off, req, func() { features.ExtractBVP(win.bvp, w.rec.BVPFs) })
		r.tr.time("features.gsr", off, req, func() { features.ExtractGSR(win.gsr, w.rec.GSRFs) })
		r.tr.time("features.skt", off, req, func() { features.ExtractSKT(win.skt, w.rec.SKTFs) })
	}
	r.tr.close(off)
}

// assign replays the cold-start assignment under the request that
// triggered it.
func (r *replayer) assign(rp *reply, u *user) {
	maps := assignMaps(u)
	r.tr.time("core.assign", rp.span, rp.req, func() { r.pipe.AssignMapsCtx(context.Background(), maps, assignFrac) })
}

// assignMaps is the unlabelled budget that triggers a user's cold-start
// assignment: their first windows.
func assignMaps(u *user) []*tensor.Tensor {
	maps := make([]*tensor.Tensor, wemac.BudgetWindows(len(u.windows), assignFrac))
	for i := range maps {
		maps[i] = u.windows[i].m
	}
	return maps
}

// personalize records the interval from the labels call to the session's
// first personalised report, with the fine-tune and deployment replayed
// under it.
func (r *replayer) personalize(p personalization, u *user) {
	root := r.tr.add("serve.personalize", p.start, p.end, -1, p.req)
	samples := make([]nn.Sample, p.lc.labelled)
	for i := range samples {
		samples[i] = nn.Sample{X: r.pipe.Apply(u.windows[i].m), Y: u.windows[i].label}
	}
	var m *nn.Model
	r.tr.time("core.finetune", root, p.req, func() {
		var err error
		m, err = r.pipe.FineTuneCtx(context.Background(), p.lc.ftCluster, samples)
		mustf(err, "replay fine-tune")
	})
	r.tr.time("edge.deploy", root, p.req, func() { edge.Deploy(m, r.device) })
}

// allocs counts heap allocations per call of f over n calls. The server is
// shut down by then, but the runtime may still allocate now and then, so
// the count is the least of three passes; it repeats exactly.
func allocs(n int, f func()) float64 {
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&b)
		best = math.Min(best, float64(b.Mallocs-a.Mallocs)/float64(n))
	}
	return best
}

type modalityWindow struct{ bvp, gsr, skt []float64 }

// splitWindows cuts a recording the way features.ExtractMap does: evenly
// spaced windows covering the whole recording.
func splitWindows(rec *features.Recording) []modalityWindow {
	span := rec.Duration() - extractor.WindowSec
	out := make([]modalityWindow, extractor.Windows)
	for w := range out {
		start := 0.0
		if extractor.Windows > 1 {
			start = span * float64(w) / float64(extractor.Windows-1)
		}
		out[w] = modalityWindow{
			bvp: slice(rec.BVP, rec.BVPFs, start),
			gsr: slice(rec.GSR, rec.GSRFs, start),
			skt: slice(rec.SKT, rec.SKTFs, start),
		}
	}
	return out
}

func slice(x []float64, fs, start float64) []float64 {
	lo := int(start * fs)
	hi := lo + int(extractor.WindowSec*fs)
	if hi > len(x) {
		hi = len(x)
	}
	return x[lo:hi]
}

func recordingPayload(rec *features.Recording) serve.WindowPayload {
	return serve.WindowPayload{Recording: &serve.RecordingPayload{
		BVP: rec.BVP, BVPFs: rec.BVPFs, GSR: rec.GSR, GSRFs: rec.GSRFs, SKT: rec.SKT, SKTFs: rec.SKTFs,
	}}
}
