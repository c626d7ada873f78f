// Package astro is the public facade of the Astro reproduction: a
// compiler-assisted adaptive program scheduler for big.LITTLE systems
// (Novaes et al., PPoPP 2019), together with every substrate it needs — an
// astc compiler, a deterministic big.LITTLE machine simulator, Q-learning
// runtime, and the baseline schedulers (GTS, Hipster, Octopus-Man).
//
// The typical pipeline mirrors the paper's Fig. 5:
//
//	mod, _ := astro.Compile("prog", source)          // Clang/LLVM stand-in
//	prog, _ := astro.NewProgram(mod)                 // feature mining (Sec 3.1)
//	agent := prog.NewAgent(42)                       // Q-learning (Sec 3.2)
//	_, _ = prog.Train(agent, astro.TrainConfig{...}) // learning episodes
//	static, _ := prog.StaticBinary(agent)            // Fig. 8b imprinting
//	res, _ := astro.Run(static, astro.RunConfig{...})
//
// Everything is deterministic for a given seed and uses only the standard
// library. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// the paper-vs-measured results.
package astro

import (
	"fmt"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/lang"
	"astro/internal/rl"
	"astro/internal/sched"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// Re-exported core types. The internal packages remain the source of truth;
// these aliases give library users one import.
type (
	// Module is a compiled astc program.
	Module = ir.Module
	// Platform describes a big.LITTLE board.
	Platform = hw.Platform
	// Config is a hardware configuration (xLyB).
	Config = hw.Config
	// Result summarizes a simulated execution.
	Result = sim.Result
	// Phase is a static program phase.
	Phase = features.Phase
	// Policy maps phases to configurations for static instrumentation.
	Policy = instrument.Policy
	// Agent is a Q-learning policy.
	Agent = rl.Agent
)

// Compile builds an astc source string into IR (the front-end half of the
// paper's toolchain).
func Compile(name, source string) (*Module, error) {
	return lang.Compile(name, source)
}

// OdroidXU4 returns the paper's evaluation platform (4 big + 4 LITTLE,
// 24 configurations).
func OdroidXU4() *Platform { return hw.OdroidXU4() }

// JetsonTK1 returns the power-profiling platform of Fig. 2/3.
func JetsonTK1() *Platform { return hw.JetsonTK1() }

// Benchmark returns a bundled benchmark module by name (see
// BenchmarkNames).
func Benchmark(name string) (*Module, []int64, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("astro: unknown benchmark %q (have %v)", name, workloads.Names())
	}
	mod, err := spec.Compile()
	if err != nil {
		return nil, nil, err
	}
	return mod, spec.Args(), nil
}

// BenchmarkNames lists the bundled PARSEC/Rodinia-style benchmarks.
func BenchmarkNames() []string { return workloads.Names() }

// Program bundles a module with its Phase-Extractor analysis and
// instrumented variants.
type Program struct {
	Plat     *Platform
	Module   *Module
	Info     *features.ModuleInfo
	Learning *Module // phase-logging binary for training
}

// NewProgram analyzes a module for the Odroid XU4.
func NewProgram(mod *Module) (*Program, error) {
	return NewProgramOn(mod, hw.OdroidXU4())
}

// NewProgramOn analyzes a module for a specific platform.
func NewProgramOn(mod *Module, plat *Platform) (*Program, error) {
	info := features.AnalyzeModule(mod, features.Options{})
	learn, err := instrument.ForLearning(mod, info)
	if err != nil {
		return nil, err
	}
	return &Program{Plat: plat, Module: mod, Info: info, Learning: learn}, nil
}

// Phases returns each function's static phase.
func (p *Program) Phases() map[string]Phase {
	out := make(map[string]Phase, len(p.Info.Funcs))
	for _, f := range p.Info.Funcs {
		out[f.Name] = f.Phase
	}
	return out
}

// NewAgent builds the paper's neural Q-learner sized for the platform.
func (p *Program) NewAgent(seed int64) Agent {
	return rl.NewDQN(p.Plat.NumConfigs(), rl.DQNConfig{Seed: seed})
}

// TrainConfig controls Q-learning episodes.
type TrainConfig struct {
	Episodes int // default 12
	Seed     int64
	Args     []int64 // program arguments (scale, threads)
}

// Train runs learning episodes on the instrumented binary and returns the
// per-episode statistics (time, energy, reward) showing convergence.
func (p *Program) Train(agent Agent, cfg TrainConfig) ([]sched.EpisodeStat, *Policy, error) {
	act := sched.NewAstro(agent, p.Plat, true)
	stats, err := sched.Train(p.Learning, p.Plat, act, sched.TrainOptions{
		Episodes: cfg.Episodes,
		Seed:     cfg.Seed,
		Args:     cfg.Args,
		SimOpts:  sim.Options{},
	})
	if err != nil {
		return stats, nil, err
	}
	pol := sched.ExtractPolicyVisited(agent, p.Plat, act.Visits())
	return stats, pol, nil
}

// StaticBinary imprints a trained policy into the program (Fig. 8b).
func (p *Program) StaticBinary(pol *Policy) (*Module, error) {
	return instrument.ForStatic(p.Module, p.Info, p.Plat, pol)
}

// HybridBinary emits determine-configuration instrumentation (Fig. 8c);
// run it with RunConfig.Hybrid set to a HybridRuntime.
func (p *Program) HybridBinary() (*Module, error) {
	return instrument.ForHybrid(p.Module, p.Info)
}

// NewHybridRuntime builds the resident policy for hybrid binaries.
func (p *Program) NewHybridRuntime(agent Agent, pol *Policy) sim.HybridPolicy {
	hr := sched.NewHybridRuntime(agent, p.Plat)
	hr.Policy = pol
	return hr
}

// RunConfig controls one simulated execution.
type RunConfig struct {
	Platform      *Platform // default Odroid XU4
	Args          []int64
	Seed          int64
	InitialConfig Config // zero = all cores
	UseGTS        bool   // schedule threads with GTS (the paper's OS baseline)
	Hybrid        sim.HybridPolicy
	CaptureOutput bool
}

// Run executes a module on the simulated board.
func Run(mod *Module, cfg RunConfig) (*Result, error) {
	plat := cfg.Platform
	if plat == nil {
		plat = hw.OdroidXU4()
	}
	opts := sim.Options{
		Args:          cfg.Args,
		Seed:          cfg.Seed,
		InitialConfig: cfg.InitialConfig,
		Hybrid:        cfg.Hybrid,
		CaptureOutput: cfg.CaptureOutput,
	}
	if cfg.UseGTS {
		opts.OS = sched.NewGTS()
	}
	return sim.Execute(mod, plat, opts, nil)
}
