// Package experiments regenerates every table and figure of the paper's
// evaluation (Figs. 1, 3, 4, 6, 9, 10, 11 and Table 1, plus the headline
// RQ1-RQ5 numbers). Each driver returns a structured result with a
// Render method producing the terminal-friendly form recorded in
// EXPERIMENTS.md. See DESIGN.md for the experiment index.
package experiments

import (
	"fmt"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// Scale selects experiment effort: Small keeps CI runs fast; Paper is the
// scale used for the recorded EXPERIMENTS.md results.
type Scale int

const (
	Small Scale = iota
	Paper
)

func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "small"
}

// simOpts returns the base simulator options for a scale.
func simOpts(s Scale, seed int64) sim.Options {
	if s == Paper {
		return sim.Options{
			Seed:        seed,
			CheckpointS: 1e-3,
			QuantumS:    100e-6,
			TickS:       500e-6,
		}
	}
	return sim.Options{
		Seed:        seed,
		CheckpointS: 400e-6,
		QuantumS:    50e-6,
		TickS:       200e-6,
	}
}

// argsFor returns the benchmark arguments for a scale.
func argsFor(s Scale, spec workloads.Spec) []int64 {
	if s == Paper {
		return spec.Args()
	}
	return spec.SmallArgs()
}

// episodesFor returns the Q-learning training budget for a scale.
func episodesFor(s Scale) int {
	if s == Paper {
		return 18
	}
	return 10
}

// samplesFor returns the per-treatment sample count (Fig. 10 uses 5, like
// the paper).
func samplesFor(s Scale) int {
	if s == Paper {
		return 5
	}
	return 3
}

// compileBench compiles a registered benchmark or fails loudly (registry
// entries are covered by tests).
func compileBench(name string) (*ir.Module, workloads.Spec, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, spec, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	mod, err := spec.Compile()
	if err != nil {
		return nil, spec, err
	}
	return mod, spec, nil
}

// runFixed executes mod pinned to cfg and returns the result.
func runFixed(mod *ir.Module, plat *hw.Platform, cfg hw.Config, opts sim.Options) (*sim.Result, error) {
	opts.InitialConfig = cfg
	return sim.Execute(mod, plat, opts, nil)
}

// learningArtifacts bundles a benchmark's instrumented variants.
type learningArtifacts struct {
	spec     workloads.Spec
	plain    *ir.Module
	info     *features.ModuleInfo
	learning *ir.Module
	hybrid   *ir.Module
}

func prepare(name string) (*learningArtifacts, error) {
	mod, spec, err := compileBench(name)
	if err != nil {
		return nil, err
	}
	mi := features.AnalyzeModule(mod, features.Options{})
	learn, err := instrument.ForLearning(mod, mi)
	if err != nil {
		return nil, err
	}
	hyb, err := instrument.ForHybrid(mod, mi)
	if err != nil {
		return nil, err
	}
	return &learningArtifacts{spec: spec, plain: mod, info: mi, learning: learn, hybrid: hyb}, nil
}

func (a *learningArtifacts) static(plat *hw.Platform, pol *instrument.Policy) (*ir.Module, error) {
	return instrument.ForStatic(a.plain, a.info, plat, pol)
}
