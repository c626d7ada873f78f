// Package campaign is the scaling substrate of the reproduction: it treats
// one deterministic simulation as a schedulable, memoizable unit of work
// and executes whole evaluation sweeps — benchmark × platform × scheduler ×
// hardware configuration × seed grids — on a bounded worker pool with
// content-addressed result caching.
//
// The pieces compose bottom-up:
//
//   - Job: one fully-specified simulation. Its Key is a SHA-256 over every
//     input that can influence the result (module IR bytes, platform,
//     scheduler policy, initial configuration, seed, arguments, simulator
//     knobs), so two byte-identical jobs are the same job. Behaviour that
//     lives outside those bytes (a custom Hybrid policy) must be named
//     into the key via HybridKey or the job is uncacheable.
//   - ResultStore: the storage contract — canonical bytes by content key —
//     implemented by Store (in-memory + optional crash-safe on-disk tier
//     of 1–256 key-prefix shards, the layout read from disk at open) and
//     AgentExchange (a worker-local tier backed by a coordinator over
//     HTTP).
//   - Runner: the execution contract, implemented by Pool (in-process
//     worker pool with deterministic static sharding) and RemoteRunner
//     (cells leased to pull-based workers over HTTP via a WorkQueue, with
//     lease expiry, retry, and result validation). The two are drop-in
//     replacements: same jobs, same keys, byte-identical outcomes.
//   - Spec: the declarative campaign description (JSON-friendly) that
//     expands into a job list in a fixed order.
//   - Engine: the campaign lifecycle manager behind cmd/astro-serve —
//     submit, observe, subscribe to progress, cancel — written against
//     Runner and ResultStore.
//   - Worker: the pull side of the distributed protocol (cmd/astro's
//     worker subcommand): lease WireJob cells, verify their content keys,
//     execute, push canonical results back.
//
// Because the simulator is deterministic, a campaign's result set is a pure
// function of its spec: running with 1 worker or 8, in-process or through
// remote workers, cold or from a warm cache, yields byte-identical result
// sets. The determinism tests and TestRemoteByteIdentity pin exactly this,
// and a warm re-run performs zero fresh simulations on any path.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/sched"
	"astro/internal/sim"
)

// DefaultPlatform is the platform a job runs on when it names none.
const DefaultPlatform = "odroid-xu4"

// Job is one simulation: a compiled module executed on a named platform
// under a named scheduling policy with a fixed seed. Jobs are built either
// declaratively (Spec.Expand) or programmatically (the experiments figure
// drivers construct them around pre-trained modules).
type Job struct {
	Index     int    // position in the campaign, stable across worker counts
	Label     string // human-readable identity for progress lines
	Benchmark string // informational; the module carries the code

	Module   *ir.Module
	PlatName string // "" = DefaultPlatform
	// OS selects the OS-level thread scheduler: "" (least-loaded) or "gts".
	OS string
	// Actuator selects the per-checkpoint adaptation policy: "",
	// "octopus-man", "fixed:<xLyB>", or "random:<seed>".
	Actuator string
	Config   hw.Config // initial hardware configuration; zero = all cores on
	Seed     int64
	Args     []int64
	Opts     sim.Options // scalar knobs only; OS/Actuator/Hybrid must be nil

	// Hybrid optionally supplies a custom hybrid policy (e.g. a trained
	// agent). Policies built this way live outside the content hash, so the
	// caller must name them via HybridKey for the job to be cacheable; a
	// Hybrid factory with an empty HybridKey marks the job uncacheable.
	Hybrid    func() sim.HybridPolicy
	HybridKey string

	// AgentKey is the declarative alternative to Hybrid: the content
	// address (TrainSpec.Key) of a trained-agent snapshot in the result
	// store. Execute rebuilds the hybrid policy from the snapshot alone —
	// restore the agent, extract the visited-state static policy, wrap both
	// in a HybridRuntime — so the job's behaviour is a pure function of the
	// key. Snapshots are inference-exact and carry their visited states,
	// which makes the rebuilt policy bit-identical on every machine: unlike
	// factory-built Hybrid jobs, agent-keyed jobs are cacheable AND
	// wireable, and need no Exclusive tag (each execution restores a
	// private agent). Mutually exclusive with Hybrid/HybridKey.
	AgentKey string

	// Agents supplies the snapshot store Execute resolves AgentKey
	// against (a local Store, or a worker's AgentExchange). It is runtime
	// wiring, not identity — never hashed. Pool fills it from its own
	// store when the job leaves it nil.
	Agents ResultStore

	// Program optionally supplies the module's compiled program so Execute
	// skips compilation (a worker decodes it from shipped bytes; see
	// WireJob.Program). Like Agents it is runtime wiring, not identity —
	// never hashed — and it is pure acceleration: a program compiled from
	// this module produces byte-identical results to compiling in place
	// (DESIGN.md invariant 12), and sim.NewWithProgram rejects one compiled
	// from any other module. Ignored under Opts.LegacyInterp.
	Program *sim.Program

	// Exclusive serializes jobs sharing the same non-empty tag: jobs whose
	// policies share mutable state (a DQN's inference scratch buffers, say)
	// must not run concurrently with each other.
	Exclusive string

	// modHash caches the module's content hash; see (*Job).moduleHash.
	modHash string
}

// ModuleHash returns the content hash of a module's IR encoding.
func ModuleHash(m *ir.Module) string {
	sum := sha256.Sum256(ir.Encode(m))
	return hex.EncodeToString(sum[:])
}

// ProgramKey is the result-store address of a compiled program artifact:
// a pure function of the module's content hash and the platform's
// cost-table identity, the exact pair sim.DecodeProgram verifies before
// accepting the bytes. Versioned separately from job keys — program
// artifacts are cache, not results, and a compiler-generation bump
// (sim.ProgramBytesCurrent) retires stale entries without touching them.
func ProgramKey(modHash, costTableID string) string {
	sum := sha256.Sum256([]byte("astro-program-v1\n" + modHash + "\n" + costTableID))
	return hex.EncodeToString(sum[:])
}

// moduleHash returns the job's module hash, computing it once per job.
// Spec.Expand pre-fills it per compiled module so a 24-config sweep hashes
// its module once; there is deliberately no process-global memo — a
// long-running astro-serve would otherwise pin every module it ever
// compiled in memory.
func (j *Job) moduleHash() string {
	if j.modHash == "" {
		j.modHash = ModuleHash(j.Module)
	}
	return j.modHash
}

func (j *Job) platformName() string {
	if j.PlatName == "" {
		return DefaultPlatform
	}
	return j.PlatName
}

// hybridIdentity names the job's hybrid behaviour for the content hash:
// the caller-supplied HybridKey for factory-built policies, or a derived
// "agent:<key>" token for agent-keyed jobs (the snapshot fully determines
// the rebuilt policy, so its content address is the policy's identity).
// The second return is false when the hybrid behaviour cannot be named —
// a factory without a HybridKey, or conflicting declarations.
func (j *Job) hybridIdentity() (string, bool) {
	if j.AgentKey != "" {
		if j.Hybrid != nil || j.HybridKey != "" {
			return "", false // two hybrid identities would shadow each other
		}
		return "agent:" + j.AgentKey, true
	}
	if j.Hybrid != nil && j.HybridKey == "" {
		return "", false
	}
	return j.HybridKey, true
}

// Key returns the job's content address and whether the job is cacheable.
// Uncacheable jobs (custom hybrid policy without a HybridKey) always
// simulate fresh.
func (j *Job) Key() (string, bool) {
	hybrid, ok := j.hybridIdentity()
	if !ok {
		return "", false
	}
	// Seed, Args and InitialConfig live on the Job itself; clear them in the
	// knob fingerprint so Opts copies can't disagree with the job fields
	// (Execute overwrites them the same way).
	opts := j.Opts
	opts.Seed, opts.Args, opts.InitialConfig = 0, nil, hw.Config{}
	fp, err := opts.Fingerprint()
	if err != nil {
		return "", false
	}
	var sb strings.Builder
	sb.WriteString("astro-campaign-job-v1\n")
	sb.WriteString(j.moduleHash())
	sb.WriteByte('\n')
	sb.WriteString(j.platformName())
	sb.WriteByte('\n')
	sb.WriteString(j.OS)
	sb.WriteByte('\n')
	sb.WriteString(j.Actuator)
	sb.WriteByte('\n')
	sb.WriteString(j.Config.String())
	sb.WriteByte('\n')
	sb.WriteString(strconv.FormatInt(j.Seed, 10))
	sb.WriteByte('\n')
	for _, a := range j.Args {
		sb.WriteString(strconv.FormatInt(a, 10))
		sb.WriteByte(',')
	}
	sb.WriteByte('\n')
	sb.WriteString(fp)
	sb.WriteByte('\n')
	sb.WriteString(hybrid)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), true
}

// ValidateScheduler checks a scheduler token without building anything.
// CLIs use it to reject typos before a campaign compiles or runs; the error
// lists the valid tokens. Platform-dependent tokens ("fixed:<xLyB>") are
// only syntax-checked here — Spec.Validate still checks them against every
// target platform.
func ValidateScheduler(tok string) error {
	osName, actName, err := schedToken(tok)
	if err != nil {
		return err
	}
	if _, err := buildOS(osName); err != nil {
		return err
	}
	if strings.HasPrefix(actName, "fixed:") {
		// Syntax only: the config must parse, but whether it is valid on a
		// particular board is Spec.Validate's per-platform job.
		if _, err := hw.ParseConfig(strings.TrimPrefix(actName, "fixed:")); err != nil {
			return fmt.Errorf("campaign: scheduler %q: %w", tok, err)
		}
		return nil
	}
	if actName != "" {
		plat, err := hw.ByName(DefaultPlatform)
		if err != nil {
			return err
		}
		if _, err := buildActuator(actName, plat); err != nil {
			return err
		}
	}
	return nil
}

// buildOS resolves the OS policy name (fresh instance per run: policies may
// carry state).
func buildOS(name string) (sim.OSPolicy, error) {
	switch name {
	case "":
		return nil, nil // sim defaults to least-loaded
	case "gts":
		return sched.NewGTS(), nil
	}
	return nil, fmt.Errorf("campaign: unknown OS policy %q (have \"\", \"gts\")", name)
}

// buildActuator resolves the actuator name against a platform.
func buildActuator(name string, plat *hw.Platform) (sim.Actuator, error) {
	switch {
	case name == "":
		return nil, nil
	case name == "octopus-man":
		return sched.NewOctopusMan(plat), nil
	case strings.HasPrefix(name, "fixed:"):
		cfg, err := hw.ParseConfig(strings.TrimPrefix(name, "fixed:"))
		if err != nil {
			return nil, fmt.Errorf("campaign: actuator %q: %w", name, err)
		}
		if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
			// The simulator silently ignores invalid actuation requests, so
			// an unchecked config would mislabel an all-on run as "fixed:X".
			return nil, fmt.Errorf("campaign: actuator %q: config invalid on %s", name, plat.Name)
		}
		return &sched.Fixed{Config: cfg}, nil
	case strings.HasPrefix(name, "random:"):
		seed, err := strconv.ParseUint(strings.TrimPrefix(name, "random:"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: actuator %q: %w", name, err)
		}
		return &sched.Random{Plat: plat, Seed: seed}, nil
	}
	return nil, fmt.Errorf("campaign: unknown actuator %q", name)
}

// Execute runs the simulation from scratch (no cache involvement).
func (j *Job) Execute() (*sim.Result, error) {
	if j.Module == nil {
		return nil, fmt.Errorf("campaign: job %d (%s) has no module", j.Index, j.Label)
	}
	if j.Opts.OS != nil || j.Opts.Actuator != nil || j.Opts.Hybrid != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): set policies by name, not in Opts", j.Index, j.Label)
	}
	plat, err := hw.ByName(j.platformName())
	if err != nil {
		return nil, err
	}
	opts := j.Opts
	opts.Seed = j.Seed
	opts.Args = j.Args
	opts.InitialConfig = j.Config
	if opts.OS, err = buildOS(j.OS); err != nil {
		return nil, err
	}
	if opts.Actuator, err = buildActuator(j.Actuator, plat); err != nil {
		return nil, err
	}
	if j.AgentKey != "" && (j.Hybrid != nil || j.HybridKey != "") {
		// The same conflict hybridIdentity reports as uncacheable — but a
		// conflicted job must fail loudly here, not quietly lose caching
		// and wireability (its one observable symptom would be silent
		// re-simulation on every run).
		return nil, fmt.Errorf("campaign: job %d (%s): AgentKey conflicts with Hybrid/HybridKey", j.Index, j.Label)
	}
	if j.Hybrid != nil {
		opts.Hybrid = j.Hybrid()
	} else if j.AgentKey != "" {
		if opts.Hybrid, err = j.hybridFromAgent(plat); err != nil {
			return nil, err
		}
	}
	m, err := sim.NewWithProgram(j.Module, plat, opts, j.Program)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// hybridFromAgent rebuilds the hybrid policy named by AgentKey: fetch the
// trained-agent snapshot from the Agents store, restore the agent, extract
// the visited-state static policy, and wrap both in a HybridRuntime —
// exactly the construction the fig10 driver performs in-process. Every
// input is inside the snapshot (inference-exact parameters plus the
// visited states), so the policy this returns is bit-identical wherever it
// is rebuilt; that is what lets agent-keyed jobs cross the wire.
func (j *Job) hybridFromAgent(plat *hw.Platform) (sim.HybridPolicy, error) {
	if j.Agents == nil {
		return nil, fmt.Errorf("campaign: job %d (%s): agent-keyed hybrid needs an Agents store", j.Index, j.Label)
	}
	data, ok := j.Agents.Get(j.AgentKey)
	if !ok {
		return nil, fmt.Errorf("campaign: job %d (%s): no trained-agent snapshot under %s", j.Index, j.Label, j.AgentKey)
	}
	tr, err := restoreTrained(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): snapshot %s: %w", j.Index, j.Label, j.AgentKey, err)
	}
	hr := sched.NewHybridRuntime(tr.Agent, plat)
	hr.Policy = sched.ExtractPolicyVisited(tr.Agent, plat, tr.Visits)
	return hr, nil
}
