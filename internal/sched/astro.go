// Package sched implements the schedulers evaluated in the paper:
//
//   - Astro (Sec. 3.2): the checkpoint actuator driving Q-learning over
//     (configuration, program phase, hardware phase) states, in learning and
//     exploitation modes, plus static-policy extraction and the hybrid
//     runtime consulted by instrumented binaries.
//   - Hipster [20]: the same reward and learner but with a purely dynamic
//     state (no program phases), as the paper's customization describes.
//   - Octopus-Man [22]: the profiling/threshold ladder without learning.
//   - GTS: ARM's Global Task Scheduling, the OS baseline (big-first
//     placement by tracked load, periodic balancing).
package sched

import (
	"fmt"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/perfmon"
	"astro/internal/rl"
	"astro/internal/sim"
)

// AstroActuator is the paper's actuation loop (Fig. 7): at every checkpoint
// it computes the reward of the previous action, updates the learner, and
// chooses the next hardware configuration.
type AstroActuator struct {
	Agent rl.Agent
	Plat  *hw.Platform
	// Gamma is the reward exponent (Definition 3.7): 1.0 optimizes energy,
	// 2.0 emphasizes performance (the paper's choice).
	Gamma float64
	// Learn enables exploration and online updates; exploitation mode only
	// queries the trained policy.
	Learn bool
	// UseProgPhase distinguishes Astro (true) from Hipster (false): Hipster
	// sees only the dynamic hardware state.
	UseProgPhase bool

	name       string
	prev       rl.State
	prevAction int
	hasPrev    bool
	norm       rl.Normalizer

	// visits records the states seen while learning; ExtractPolicyVisited
	// votes over them so the static policy reflects experienced states
	// rather than the approximator's extrapolation.
	visits []rl.State
}

// Visits returns the states observed during learning.
func (a *AstroActuator) Visits() []rl.State { return a.visits }

// NewAstro builds the Astro actuator.
func NewAstro(agent rl.Agent, plat *hw.Platform, learn bool) *AstroActuator {
	return &AstroActuator{
		Agent: agent, Plat: plat, Gamma: 2.0, Learn: learn,
		UseProgPhase: true, name: "astro",
	}
}

// NewHipster builds the Hipster variant: identical learner and reward but
// no program-phase awareness.
func NewHipster(agent rl.Agent, plat *hw.Platform, learn bool) *AstroActuator {
	return &AstroActuator{
		Agent: agent, Plat: plat, Gamma: 2.0, Learn: learn,
		UseProgPhase: false, name: "hipster",
	}
}

// Name implements sim.Actuator.
func (a *AstroActuator) Name() string { return a.name }

// state maps a checkpoint to the learner's state.
func (a *AstroActuator) state(ck sim.Checkpoint) rl.State {
	phase := 0
	if a.UseProgPhase {
		phase = int(ck.ProgPhase)
	}
	return rl.State{
		ConfigID:  a.Plat.ConfigID(ck.Config),
		ProgPhase: phase,
		HWPhaseID: ck.HWPhase.ID(),
	}
}

// OnCheckpoint implements sim.Actuator.
func (a *AstroActuator) OnCheckpoint(m *sim.Machine, ck sim.Checkpoint) hw.Config {
	s := a.state(ck)
	if a.Learn {
		a.visits = append(a.visits, s)
		if a.hasPrev {
			r := a.norm.Scale(rl.Reward(ck.MIPS(), ck.Watts(), a.Gamma))
			a.Agent.Observe(a.prev, a.prevAction, r, s)
		}
	}
	var action int
	if a.Learn {
		action = a.Agent.Select(s, true)
	} else {
		action = a.Agent.Best(s)
	}
	a.prev, a.prevAction, a.hasPrev = s, action, true
	return a.Plat.ConfigFromID(action)
}

// EndEpisode finishes one training run.
func (a *AstroActuator) EndEpisode() {
	a.Agent.EndEpisode()
	a.hasPrev = false
}

// TrainOptions configures the training loop.
type TrainOptions struct {
	Episodes int // default 12
	Seed     int64
	Args     []int64     // program arguments
	SimOpts  sim.Options // base options (Actuator/Seed overwritten per episode)
}

// EpisodeStat records one training episode's outcome, used to show
// convergence (the paper's claim that compiler hints speed it up).
type EpisodeStat struct {
	Episode int
	TimeS   float64
	EnergyJ float64
	Reward  float64 // whole-run MIPS^gamma/W, unscaled
}

// Train runs the learning-instrumented module repeatedly, updating the
// actuator's agent online, and returns per-episode statistics.
func Train(mod *ir.Module, plat *hw.Platform, act *AstroActuator, opts TrainOptions) ([]EpisodeStat, error) {
	if opts.Episodes == 0 {
		opts.Episodes = 12
	}
	var stats []EpisodeStat
	for ep := 0; ep < opts.Episodes; ep++ {
		so := opts.SimOpts
		so.Actuator = act
		so.Seed = opts.Seed + int64(ep)*7919
		so.Args = opts.Args
		res, err := sim.Execute(mod, plat, so, nil)
		if err != nil {
			return stats, fmt.Errorf("sched: train episode %d: %w", ep, err)
		}
		act.EndEpisode()
		stats = append(stats, EpisodeStat{
			Episode: ep,
			TimeS:   res.TimeS,
			EnergyJ: res.EnergyJ,
			Reward:  rl.Reward(res.MIPS(), res.AvgWatts(), act.Gamma),
		})
	}
	return stats, nil
}

// TrainedAgent bundles everything a training run produces that downstream
// consumers need: the agent itself (hybrid runtimes query it), the visited
// states (policy extraction votes over them) and the per-episode statistics
// (convergence figures). It is the unit the campaign layer memoizes.
type TrainedAgent struct {
	Agent  rl.Agent
	Visits []rl.State
	Stats  []EpisodeStat
}

// TrainAstro is the bundled training entry point: build the named agent
// kind ("dqn" or "tabular", using cfg for both — the tabular learner takes
// cfg.Seed), wrap it in an Astro (or Hipster, when hipster is set) actuator
// with the given reward exponent (0 means the paper's 2.0), and run the
// training loop. The result is a pure function of (mod, plat, agentKind,
// cfg, hipster, gamma, opts) — the property the campaign trained-agent
// cache keys rely on.
func TrainAstro(mod *ir.Module, plat *hw.Platform, agentKind string, cfg rl.DQNConfig,
	hipster bool, gamma float64, opts TrainOptions) (*TrainedAgent, error) {
	var agent rl.Agent
	switch agentKind {
	case "", "dqn":
		agent = rl.NewDQN(plat.NumConfigs(), cfg)
	case "tabular":
		agent = rl.NewTabular(plat.NumConfigs(), cfg.Seed)
	default:
		return nil, fmt.Errorf("sched: unknown agent kind %q (have \"dqn\", \"tabular\")", agentKind)
	}
	var act *AstroActuator
	if hipster {
		act = NewHipster(agent, plat, true)
	} else {
		act = NewAstro(agent, plat, true)
	}
	if gamma != 0 {
		act.Gamma = gamma
	}
	stats, err := Train(mod, plat, act, opts)
	if err != nil {
		return nil, err
	}
	return &TrainedAgent{Agent: agent, Visits: act.Visits(), Stats: stats}, nil
}

// ExtractPolicy derives the per-phase static policy from a trained agent by
// majority vote of the greedy action across all hardware phases and current
// configurations (the knowledge "imprinted" into the final binary,
// Sec. 3.3).
func ExtractPolicy(agent rl.Agent, plat *hw.Platform) *instrument.Policy {
	pol := &instrument.Policy{}
	for p := 0; p < features.NumPhases; p++ {
		pol.PerPhase[p] = voteForPhase(agent, plat, p, nil)
	}
	return pol
}

// ExtractPolicyVisited is ExtractPolicy restricted, per phase, to the
// states actually visited during training. Voting over experienced states
// keeps the function-approximator's extrapolation noise out of the
// imprinted policy. Phases with too little evidence (under minVisits
// checkpoints) inherit the dominant phase's configuration rather than
// trusting extrapolation: pinning an exotic configuration on a region the
// training never observed is how static policies go pathological.
func ExtractPolicyVisited(agent rl.Agent, plat *hw.Platform, visits []rl.State) *instrument.Policy {
	const minVisits = 8
	byPhase := map[int][]rl.State{}
	for _, s := range visits {
		byPhase[s.ProgPhase] = append(byPhase[s.ProgPhase], s)
	}
	dominant, dominantN := 0, -1
	for p := 0; p < features.NumPhases; p++ {
		if n := len(byPhase[p]); n > dominantN {
			dominant, dominantN = p, n
		}
	}
	pol := &instrument.Policy{}
	var fallback hw.Config
	if dominantN > 0 {
		fallback = voteForPhase(agent, plat, dominant, byPhase[dominant])
	} else {
		fallback = plat.AllOn()
	}
	for p := 0; p < features.NumPhases; p++ {
		if len(byPhase[p]) >= minVisits {
			pol.PerPhase[p] = voteForPhase(agent, plat, p, byPhase[p])
		} else {
			pol.PerPhase[p] = fallback
		}
	}
	return pol
}

// voteForPhase tallies greedy actions for one program phase; states lists
// the visited states to vote over (nil means the full product of hardware
// phases and configurations).
func voteForPhase(agent rl.Agent, plat *hw.Platform, phase int, states []rl.State) hw.Config {
	n := plat.NumConfigs()
	votes := make([]int, n)
	if len(states) == 0 {
		for hwp := 0; hwp < perfmon.NumPhases; hwp++ {
			for cfg := 0; cfg < n; cfg++ {
				votes[agent.Best(rl.State{ConfigID: cfg, ProgPhase: phase, HWPhaseID: hwp})]++
			}
		}
	} else {
		for _, s := range states {
			s.ProgPhase = phase
			votes[agent.Best(s)]++
		}
	}
	best := 0
	for a := 1; a < n; a++ {
		if votes[a] > votes[best] {
			best = a
		}
	}
	return plat.ConfigFromID(best)
}

// HybridRuntime implements sim.HybridPolicy: the resident Astro library
// consulted by hybrid-instrumented binaries at phase boundaries. Per the
// paper (Fig. 8c and the Fig. 10 caption), the hybrid "uses runtime
// information to improve on the static decisions": it starts from the
// imprinted per-phase policy and deviates to the learner's choice only when
// the learner's value estimate beats the static choice by a clear margin in
// the current hardware phase. It also rate-limits decisions so hot call
// paths cannot thrash the hardware.
type HybridRuntime struct {
	Agent  rl.Agent
	Plat   *hw.Platform
	Policy *instrument.Policy // static base decisions; nil = pure agent
	// Margin is the Q-value advantage the agent needs to override the
	// static policy (default 0.05 in scaled-reward units).
	Margin float64
	// MinDwellS suppresses re-decisions closer together than this (default
	// 500 µs).
	MinDwellS float64

	lastT   float64
	lastCfg hw.Config
	started bool
}

// NewHybridRuntime builds the resident policy around a trained agent and
// the extracted static policy.
func NewHybridRuntime(agent rl.Agent, plat *hw.Platform) *HybridRuntime {
	return &HybridRuntime{Agent: agent, Plat: plat, Margin: 0.15, MinDwellS: 500e-6}
}

// DetermineConfig implements sim.HybridPolicy.
func (h *HybridRuntime) DetermineConfig(s sim.HybridState) hw.Config {
	if h.started && s.TimeS-h.lastT < h.MinDwellS {
		return h.lastCfg
	}
	st := rl.State{
		ConfigID:  h.Plat.ConfigID(s.Config),
		ProgPhase: int(s.Phase),
		HWPhaseID: s.HWPhase.ID(),
	}
	cfg := h.Plat.ConfigFromID(h.Agent.Best(st))
	if h.Policy != nil {
		static := h.Policy.PerPhase[s.Phase]
		if h.Agent.Q(st, h.Plat.ConfigID(cfg))-h.Agent.Q(st, h.Plat.ConfigID(static)) < h.Margin {
			cfg = static
		}
	}
	h.lastT, h.lastCfg, h.started = s.TimeS, cfg, true
	return cfg
}
