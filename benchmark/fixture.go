package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/wemac"
)

// trainSeed fixes the training cohort: the cloud stage is the same on every
// run, so setup_s measures the program, not the workload seed.
const trainSeed = 17

// extractor is the fixture's windowing: four 8 s windows per 30 s trial,
// giving 123×4 feature maps.
var extractor = features.ExtractorConfig{WindowSec: 8, Windows: 4}

// pipelineConfig is the small CNN-LSTM pipeline cmd/clear-bench trains
// (K=4 clusters of SubK=2), so the two harnesses serve the same model.
func pipelineConfig() core.Config {
	return core.Config{
		K: 4, SubK: 2,
		Extractor: extractor,
		Model: nn.ModelConfig{
			Conv1: 2, Conv2: 4,
			K1H: 5, K1W: 3, K2H: 3, K2W: 3, Pool1: 4, Pool2: 3,
			LSTMHidden: 12, Dropout: 0.1, Classes: 2, Seed: 1,
		},
		Train:        nn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 3e-3, GradClip: 5, ValFrac: 0.15, Patience: 3, Seed: 1},
		FineTune:     nn.TrainConfig{Epochs: 2, BatchSize: 8, LR: 1e-3, GradClip: 5, Seed: 1},
		Cluster:      cluster.Options{Restarts: 4, MaxIter: 50},
		RefineRounds: 2, RefineSampleFrac: 0.8, Seed: 1,
	}
}

// trainingCohort generates and extracts the cloud stage's training users.
// It is the benchmark's own data generation and is not part of setup_s.
func trainingCohort() ([]*wemac.UserMaps, error) {
	ds := wemac.Generate(wemac.Config{
		ArchetypeSizes:     []int{3, 3, 2, 2},
		TrialsPerVolunteer: 6,
		TrialSec:           30,
		Seed:               trainSeed,
	})
	return wemac.ExtractAll(ds, extractor)
}

// window is one held-out input: the raw recording, the map the generator's
// extraction made of it, and the ground-truth label.
type window struct {
	rec   *features.Recording
	m     *tensor.Tensor
	label int
	body  []byte // JSON WindowPayload{recording}, built only for stream_raw
}

// user is one held-out volunteer's stream, in trial order.
type user struct {
	id      int
	windows []window
}

// heldOut generates the workload's cold-start users from the workload seed.
// Trial counts set how many windows a session streams; the archetypes are
// balanced so every cluster serves.
func heldOut(seed int64, perArchetype, trials int) ([]*user, error) {
	ds := wemac.Generate(wemac.Config{
		ArchetypeSizes:     []int{perArchetype, perArchetype, perArchetype, perArchetype},
		TrialsPerVolunteer: trials,
		TrialSec:           30,
		Seed:               seed,
	})
	ums, err := wemac.ExtractAll(ds, extractor)
	if err != nil {
		return nil, fmt.Errorf("extract held-out users: %w", err)
	}
	users := make([]*user, len(ums))
	for i, um := range ums {
		v := ds.Volunteers[i]
		u := &user{id: um.ID}
		for j, lm := range um.Maps {
			u.windows = append(u.windows, window{rec: v.Trials[j].Rec, m: lm.Map, label: int(lm.Label)})
		}
		users[i] = u
	}
	return users, nil
}

// fixture is the trained pipeline and the device a workload serves it on.
type fixture struct {
	pipe   *core.Pipeline
	device edge.Device
	// setupS holds every measured set-up: core.Train plus serve.New.
	setupS []float64
}

// newServer builds a server on serve.Config defaults; only the device and
// the store differ by workload. A nil st means no store.
func (f *fixture) newServer(st store.Store) (*serve.Server, error) {
	return serve.New(f.pipe, serve.Config{Device: f.device, Store: st})
}

// setup runs the cloud stage and serve.New reps times and keeps the last
// pipeline. Training is deterministic, so every rep builds the same models.
func setup(reps int, device edge.Device, useMem bool) (*fixture, error) {
	train, err := trainingCohort()
	if err != nil {
		return nil, err
	}
	f := &fixture{device: device}
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		pipe, err := core.Train(train, pipelineConfig())
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		f.pipe = pipe
		var st store.Store
		if useMem {
			st = store.NewMem()
		}
		srv, err := f.newServer(st)
		if err != nil {
			return nil, fmt.Errorf("serve.New: %w", err)
		}
		f.setupS = append(f.setupS, time.Since(t0).Seconds())
		srv.Shutdown()
		if st != nil {
			_ = st.Close() // mem store: Close only marks it closed
		}
	}
	return f, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
