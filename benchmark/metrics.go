package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/tensor"
)

type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd computes the user-visible metrics of an untraced run. Rates,
// medians and per-window costs are medians over the measured segments; the
// tail is the median over chunks of tailChunk consecutive samples of each
// chunk's p90; accuracy and personalisation pool the whole interval.
func endToEnd(r *runResult, setupS []float64) []metric {
	nseg := len(r.segs)
	done := make([]int, nseg)
	lats := make([][]time.Duration, nseg)
	var measured []*reply
	classified, right := 0, 0
	for _, rp := range r.replies {
		if i := sort.Search(nseg, func(i int) bool { return r.segs[i].b.t.After(rp.end) }); i < nseg &&
			!rp.end.Before(r.segs[i].a.t) {
			done[i]++
		}
		i := r.segment(rp)
		if i < 0 {
			continue
		}
		measured = append(measured, rp)
		lats[i] = append(lats[i], r.latency(rp))
		if len(rp.ans.probs) > 0 {
			classified++
			if argmax(rp.ans.probs) == r.users[rp.lc.user].windows[rp.win].label {
				right++
			}
		}
	}
	var rate, p50, cpu, allocs, bytes []float64
	for i, sg := range r.segs {
		if done[i] == 0 || len(lats[i]) == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: segment %d answered no window\n", i)
			os.Exit(1)
		}
		n := float64(done[i])
		rate = append(rate, n/sg.b.t.Sub(sg.a.t).Seconds())
		p50 = append(p50, us(quantile(lats[i], 0.50)))
		cpu = append(cpu, us(sg.b.cpu-sg.a.cpu)/n)
		allocs = append(allocs, float64(sg.b.mallocs-sg.a.mallocs)/n)
		bytes = append(bytes, float64(sg.b.bytes-sg.a.bytes)/n)
	}
	sort.Slice(measured, func(i, j int) bool { return r.sent(measured[i]).Before(r.sent(measured[j])) })
	var p90 []float64
	for lo := 0; lo+tailChunk <= len(measured) || lo == 0; lo += tailChunk {
		hi := lo + tailChunk
		if hi > len(measured) {
			hi = len(measured)
			fmt.Fprintf(os.Stderr, "benchmark: only %d latency samples; p90 has fewer than 10 beyond it\n", hi)
		}
		var chunk []time.Duration
		for _, rp := range measured[lo:hi] {
			chunk = append(chunk, r.latency(rp))
		}
		p90 = append(p90, us(quantile(chunk, 0.90)))
	}
	var pers []time.Duration
	for _, p := range r.personalize {
		// The population measures the fine-tunes it triggers in the
		// measured interval; a stream measures its serial probe.
		if !r.openLoop || (!p.start.Before(r.t0()) && p.start.Before(r.t1())) {
			pers = append(pers, p.end.Sub(p.start))
		}
	}
	if classified == 0 || len(pers) == 0 || r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d classified windows and %d personalisations; nothing to measure\n",
			classified, len(pers))
		os.Exit(1)
	}
	return []metric{
		{"setup_s", "s", median(setupS)},
		{"windows_per_s", "1/s", median(rate)},
		{"latency_p50_us", "us", median(p50)},
		{"latency_p90_us", "us", median(p90)},
		{"cpu_us_per_window", "us", median(cpu)},
		{"allocs_per_window", "count", median(allocs)},
		{"bytes_per_window", "B", median(bytes)},
		{"success_frac", "fraction", 1 - float64(r.failed)/float64(r.attempted)},
		{"accuracy", "fraction", float64(right) / float64(classified)},
		{"personalize_ms_p50", "ms", ms(quantile(pers, 0.50))},
		{"personalize_ms_p90", "ms", ms(quantile(pers, 0.90))},
	}
}

// latencyP50 is the median latency sample of a run.
func latencyP50(r *runResult) time.Duration {
	var lats []time.Duration
	for _, rp := range r.replies {
		if r.measured(rp) {
			lats = append(lats, r.latency(rp))
		}
	}
	return quantile(lats, 0.5)
}

// perLayer replays the traced run through the layers and computes the
// per-layer metrics from the spans' self times.
func perLayer(untraced, traced *runResult, rp *replayer, f *fixture) []metric {
	tr := rp.tr
	var classifiedReplies []*reply
	var queue []time.Duration
	batch := 0.0
	for _, r := range traced.replies {
		switch {
		case len(r.ans.probs) > 0:
			classifiedReplies = append(classifiedReplies, r)
			queue = append(queue, r.ans.queueWait)
			batch += float64(r.ans.batch)
		case r.assignedNow:
			rp.assign(r, traced.users[r.lc.user])
		}
	}
	stride := len(classifiedReplies)/replayWindows + 1
	for i := 0; i < len(classifiedReplies); i += stride {
		r := classifiedReplies[i]
		rp.window(r, &traced.users[r.lc.user].windows[r.win])
	}
	for i, p := range traced.personalize {
		if i >= replayPersonalizers {
			break
		}
		rp.personalize(p, traced.users[p.lc.user])
	}

	self := tr.selfTimes()
	byName := map[string][]time.Duration{}
	perCall := map[string]map[int]time.Duration{"nn.other": {}, "quant.act": {}}
	var forwardTotal time.Duration
	layerTotal := map[string]time.Duration{}
	tr.mu.Lock()
	for i, s := range tr.spans {
		name := s.Name
		switch name {
		case "nn.other", "quant.act":
			perCall[name][s.Parent] += self[i]
		case "req.window":
			if rp.onPath[i] {
				byName["serve.residual"] = append(byName["serve.residual"], self[i])
			}
		case "req.create":
			byName["serve.create_session"] = append(byName["serve.create_session"], self[i])
		case "req.labels":
			byName["serve.push_labels"] = append(byName["serve.push_labels"], self[i])
		case "nn.forward":
			forwardTotal += time.Duration(s.End - s.Start)
		}
		byName[name] = append(byName[name], self[i])
		if len(name) > 3 && name[:3] == "nn." {
			layerTotal[name] += self[i]
		}
	}
	tr.mu.Unlock()
	for name, calls := range perCall {
		for _, d := range calls {
			byName[name+".call"] = append(byName[name+".call"], d)
		}
	}
	med := func(name string) float64 { return us(quantile(byName[name], 0.5)) }

	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }
	add("serve.queue_wait_us", "us", us(quantile(queue, 0.5)))
	add("serve.queue_wait_p99_us", "us", us(quantile(queue, 0.99)))
	add("serve.batch_mean", "count", batch/float64(len(classifiedReplies)))
	add("serve.residual_us", "us", med("serve.residual"))
	add("serve.create_session_us", "us", med("serve.create_session"))
	add("serve.push_labels_us", "us", med("serve.push_labels"))
	add("http.decode_us", "us", med("http.decode"))
	add("http.encode_us", "us", med("http.encode"))
	for _, n := range []string{"extract_map", "bvp", "gsr", "skt", "baseline_correct", "normalize", "summary"} {
		add("features."+n+"_us", "us", med("features."+n))
	}
	add("core.apply_us", "us", med("core.apply"))
	add("core.assign_us", "us", med("core.assign"))
	add("core.finetune_ms", "ms", med("core.finetune")/1e3)
	add("nn.forward_us", "us", med("nn.forward"))
	for _, n := range nnLayers {
		name := "nn." + n
		if n == "other" {
			add(name+"_us", "us", med(name+".call"))
		} else {
			add(name+"_us", "us", med(name))
		}
	}
	add("quant.act_us", "us", med("quant.act.call"))
	add("edge.deploy_ms", "ms", med("edge.deploy")/1e3)

	windows := float64(len(traced.replies))
	st := traced.store
	if st == nil {
		st = &storeStats{}
	}
	add("store.put_session_us", "us", us(quantile(st.putSession, 0.5)))
	add("store.put_checkpoint_us", "us", us(quantile(st.checkpoint, 0.5)))
	add("store.lock_us", "us", us(quantile(st.lock, 0.5)))
	add("store.ops_per_window", "count", float64(st.ops)/windows)
	add("store.bytes_per_window", "B", float64(st.bytes)/windows)

	add("loadgen.send_late_us", "us", us(quantile(untraced.sendLate, 0.99)))
	add("trace.overhead_frac", "fraction", float64(latencyP50(traced))/float64(latencyP50(untraced))-1)

	ms = append(ms, allocCounts(traced.users, rp)...)

	shares := modelShares(f.pipe.ModelFor(0), []int{features.TotalFeatureCount, extractor.Windows})
	for _, n := range nnLayers {
		name := "nn." + n
		add(name+".model_share", "fraction", shares[name])
		add(name+".time_share", "fraction", float64(layerTotal[name])/float64(forwardTotal))
	}
	return ms
}

// allocCounts counts allocations per call of the steps that dominate a
// window's allocations. The inputs are the first windows in user order,
// each served by its user's cold-start cluster, so a seed always counts
// the same calls.
func allocCounts(users []*user, rp *replayer) []metric {
	var raw, corrected, inputs []*tensor.Tensor
	var models []*nn.Model
	for _, u := range users {
		maps := assignMaps(u)
		k := rp.pipe.AssignMaps(maps, assignFrac).Cluster
		for _, w := range u.windows[len(maps):] {
			if len(raw) == allocCalls {
				break
			}
			raw = append(raw, w.m)
			corrected = append(corrected, features.BaselineCorrect(w.m))
			inputs = append(inputs, rp.pipe.Norm.Apply(corrected[len(corrected)-1]))
			models = append(models, rp.serving[k])
		}
	}
	n := len(raw)
	one := make([][]*tensor.Tensor, n)
	for i := range one {
		one[i] = []*tensor.Tensor{raw[i]}
	}
	i := 0
	next := func() int { i = (i + 1) % n; return i }
	return []metric{
		{"features.baseline_correct_allocs", "count", allocs(n, func() { features.BaselineCorrect(raw[next()]) })},
		{"features.normalize_allocs", "count", allocs(n, func() { rp.pipe.Norm.Apply(corrected[next()]) })},
		{"features.summary_allocs", "count", allocs(n, func() { features.Summary(one[next()]) })},
		{"nn.forward_allocs", "count", allocs(n, func() { j := next(); models[j].Probabilities(inputs[j]) })},
	}
}

// modelShares is each layer group's share of the edge cost model's MACs:
// Layer.FLOPs over Model.TotalFLOPs.
func modelShares(m *nn.Model, in []int) map[string]float64 {
	total := float64(m.TotalFLOPs(in))
	out := map[string]float64{}
	shape := in
	for i, name := range layerNames(m) {
		l := m.Layers[i]
		out[name] += float64(l.FLOPs(shape)) / total
		shape = l.OutShape(shape)
	}
	return out
}

// printAttribution splits the replayed window requests' mean duration into
// the self times of their spans: queue wait, each replayed layer, store
// calls, and the serving residual. Means add up where medians do not.
func printAttribution(tr *tracer, rp *replayer, workload string) {
	self := tr.selfTimes()
	tr.mu.Lock()
	children := map[int][]int{}
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	sum := map[string]time.Duration{}
	var total time.Duration
	n := 0
	var walk func(i int, top bool)
	walk = func(i int, top bool) {
		name := tr.spans[i].Name
		if top {
			name = "serve.residual"
		}
		sum[name] += self[i]
		for _, c := range children[i] {
			walk(c, false)
		}
	}
	for i, s := range tr.spans {
		if rp.onPath[i] {
			n++
			total += time.Duration(s.End - s.Start)
			walk(i, true)
		}
	}
	tr.mu.Unlock()
	if n == 0 {
		return
	}
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]] > sum[names[j]] })
	fmt.Printf("attribution %s window_mean_us %.1f over %d replayed requests\n", workload, us(total)/float64(n), n)
	for _, name := range names {
		fmt.Printf("attribution %s %s %.1f us %.1f%%\n", workload, name,
			us(sum[name])/float64(n), 100*float64(sum[name])/float64(total))
	}
}
