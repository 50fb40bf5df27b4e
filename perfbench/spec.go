package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// specJSON holds the benchmark's fixed constants: per-workload rates,
// latency limit and corpus, the rate ladder's shape and the phase split,
// each with the reason it was chosen, plus the machine they were measured
// on. The constants were measured once and are never recomputed per run, so
// a faster program faces the same offered load.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	// SetupsPerPhase is how many throwaway builds of the model and server
	// are timed before each phase, on top of the build that serves; setup_s
	// is the median of all of them.
	SetupsPerPhase int `json:"setups_per_phase"`
	// WarmupSeconds of light-rate traffic precede the measured phases.
	WarmupSeconds float64 `json:"warmup_seconds"`
	// StageSumTolerance is the slack of the traced light phase's stage-sum
	// check: in means, late+unfold+queue+compute must be at most
	// (1+tolerance)×latency and late+unfold+submit+queue+compute at least
	// (1-tolerance)×latency.
	StageSumTolerance float64 `json:"stage_sum_tolerance"`
	// Blocks splits the light and heavy phases into this many alternating
	// blocks each.
	Blocks int `json:"blocks"`
	// WindowRungs is how many ladder rungs on each side of a workload's
	// knee rung the run always measures, in WindowBlocks interleaved
	// rounds.
	WindowRungs  int `json:"window_rungs"`
	WindowBlocks int `json:"window_blocks"`
	// LateThresholdMs is the generator lateness counted as a late send.
	LateThresholdMs float64 `json:"late_threshold_ms"`
	// LadderStep is the ratio between neighbouring rungs above heavy, and
	// LadderRungs how many rungs the ladder has above heavy.
	LadderStep  float64 `json:"ladder_step"`
	LadderRungs int     `json:"ladder_rungs"`
	// PeakOutstanding is the number of requests the peak phase keeps in
	// flight.
	PeakOutstanding int `json:"peak_outstanding"`
	// Share splits --seconds across the phases; Window is the whole rung
	// window's.
	Share struct {
		Light  float64 `json:"light"`
		Heavy  float64 `json:"heavy"`
		Window float64 `json:"window"`
		Peak   float64 `json:"peak"`
	} `json:"share"`
	Workloads map[string]workloadSpec `json:"workloads"`
}

type workloadSpec struct {
	// LightRPS and HeavyRPS are the fixed open-loop rates of the light and
	// heavy phases, the ladder's first two rungs.
	LightRPS float64 `json:"light_rps"`
	HeavyRPS float64 `json:"heavy_rps"`
	// LimitMs is the p90 latency limit a rung must meet.
	LimitMs float64 `json:"limit_ms"`
	// KneeRung is the ladder rung (k in heavy × LadderStep^k) nearest the
	// rate at which p90 latency reached LimitMs when the constants were
	// measured; the rung window is centred on it.
	KneeRung int `json:"knee_rung"`
	// Corpus bounds the distinct inputs a run generates.
	Corpus int `json:"corpus"`
}

// ladder returns the rates of the rungs above heavy: a geometric series
// from heavy in steps of LadderStep.
func (sp *spec) ladder(ws workloadSpec) []float64 {
	rates := make([]float64, sp.LadderRungs)
	for k := range rates {
		rates[k] = ws.HeavyRPS * math.Pow(sp.LadderStep, float64(k+1))
	}
	return rates
}

// window returns the first and last ladder index (into ladder's rates) of
// the rungs every run measures: WindowRungs on each side of the knee rung.
func (sp *spec) window(ws workloadSpec) (lo, hi int) {
	return max(0, ws.KneeRung-1-sp.WindowRungs), min(sp.LadderRungs-1, ws.KneeRung-1+sp.WindowRungs)
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if sp.SetupsPerPhase < 0 || sp.Blocks < 1 || sp.WindowBlocks < 1 || sp.WindowRungs < 0 || sp.PeakOutstanding < 1 || sp.LadderRungs < 1 || sp.LadderStep <= 1 {
		return nil, fmt.Errorf("spec.json: blocks, window_blocks, peak_outstanding and ladder_rungs must be at least 1, setups_per_phase and window_rungs at least 0, ladder_step above 1")
	}
	for name, ws := range sp.Workloads {
		if ws.LightRPS <= 0 || ws.HeavyRPS <= ws.LightRPS || ws.LimitMs <= 0 || ws.Corpus < 1 || ws.KneeRung < 1 || ws.KneeRung > sp.LadderRungs {
			return nil, fmt.Errorf("spec.json: workload %q has invalid rates, limit, knee rung or corpus", name)
		}
	}
	return &sp, nil
}
