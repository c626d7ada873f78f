package trace

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/lang"
	"astro/internal/rl"
	"astro/internal/sim"
)

// A small barrier-synchronized iterative benchmark (fluidanimate-like) with
// enough parallel compute to distinguish configurations.
const benchSrc = `
barrier step;
func worker(iters int, n int) {
	var it int;
	var i int;
	var x float = 1.0;
	for (it = 0; it < iters; it = it + 1) {
		for (i = 0; i < n; i = i + 1) { x = x * 1.000001 + 0.5; }
		barrier_wait(step);
	}
}
func main(scale int, threads int) {
	barrier_init(step, threads);
	var i int;
	for (i = 0; i < threads; i = i + 1) { spawn worker(40, scale); }
	join();
}
`

var (
	cachedSets = map[int]*Set{}
	cachedMod  *ir.Module
	cachedMu   sync.Mutex
)

// buildSet records (once per process) a trace set over the test
// configurations; tests share it read-only except RLPolicy training, which
// only mutates its own agent.
func buildSet(t *testing.T, configs []hw.Config) (*Set, *ir.Module, *hw.Platform) {
	t.Helper()
	cachedMu.Lock()
	defer cachedMu.Unlock()
	plat := hw.OdroidXU4()
	if set, ok := cachedSets[len(configs)]; ok {
		return set, cachedMod, plat
	}
	mod, err := lang.Compile("bench", benchSrc)
	if err != nil {
		t.Fatal(err)
	}
	mi := features.AnalyzeModule(mod, features.Options{})
	instrMod, err := instrument.ForLearning(mod, mi)
	if err != nil {
		t.Fatal(err)
	}
	set, err := RecordSet(instrMod, plat, testOpts, configs, 2)
	if err != nil {
		t.Fatal(err)
	}
	cachedSets[len(configs)] = set
	cachedMod = instrMod
	return set, instrMod, plat
}

var testOpts = sim.Options{
	Args:        []int64{12000, 4},
	Seed:        1,
	CheckpointS: 200e-6,
	QuantumS:    50e-6,
	TickS:       100e-6,
}

var testConfigs = []hw.Config{
	{Little: 1}, {Little: 4}, {Big: 1}, {Big: 4}, {Little: 4, Big: 4}, {Little: 2, Big: 2},
}

// TestRecordSetWidths pins that parallel recording is invisible in the
// result: the sets recorded on 1, 2 and 8 workers are deeply equal.
func TestRecordSetWidths(t *testing.T) {
	_, mod, plat := buildSet(t, testConfigs)
	serial, err := RecordSet(mod, plat, testOpts, testConfigs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		set, err := RecordSet(mod, plat, testOpts, testConfigs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, set) {
			t.Errorf("set recorded on %d workers differs from the serial recording", workers)
		}
	}
}

// TestRecordSetFirstErrorAtEveryWidth pins the failure contract: whatever
// the width, RecordSet reports the first failing configuration in list
// order, even when a later one fails sooner. Configurations beyond the
// board fail at once in sim.New; under a time limit between 1L0B's and
// 4L4B's run times, 1L0B fails only after simulating up to the limit.
func TestRecordSetFirstErrorAtEveryWidth(t *testing.T) {
	set, mod, plat := buildSet(t, testConfigs)
	slow, fast := hw.Config{Little: 1}, hw.Config{Little: 4, Big: 4}
	limit := (set.Traces[plat.ConfigID(slow)].TotalTimeS + set.Traces[plat.ConfigID(fast)].TotalTimeS) / 2
	bad5L, bad7B := hw.Config{Little: 5}, hw.Config{Big: 7}
	for _, tc := range []struct {
		configs  []hw.Config
		maxTimeS float64
		first    hw.Config
	}{
		{[]hw.Config{{Little: 1}, bad5L, {Big: 1}, bad7B}, 0, bad5L},
		{[]hw.Config{{Little: 4, Big: 4}, {Little: 1}, bad7B, bad5L}, 0, bad7B},
		{[]hw.Config{bad5L, {Big: 4}, {Little: 2, Big: 2}}, 0, bad5L},
		{[]hw.Config{slow, fast, bad5L}, limit, slow},
	} {
		opts := testOpts
		opts.MaxTimeS = tc.maxTimeS
		var want string
		for _, workers := range []int{1, 2, 8} {
			set, err := RecordSet(mod, plat, opts, tc.configs, workers)
			if err == nil || set != nil {
				t.Fatalf("%v on %d workers: set %v, err %v; want a failure", tc.configs, workers, set, err)
			}
			if workers == 1 {
				want = err.Error()
				if !strings.Contains(want, tc.first.String()) {
					t.Fatalf("%v: serial error %q does not name %v", tc.configs, want, tc.first)
				}
			} else if err.Error() != want {
				t.Errorf("%v on %d workers: error %q, serial %q", tc.configs, workers, err, want)
			}
		}
	}
}

func TestRecordConservation(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	for id, tr := range set.Traces {
		var instr uint64
		var dur, energy float64
		for _, r := range tr.Rows {
			instr += r.Instr
			dur += r.DurS
			energy += r.EnergyJ
		}
		if instr != tr.TotalInstr {
			t.Errorf("%v: rows sum %d instr, total %d", plat.ConfigFromID(id), instr, tr.TotalInstr)
		}
		if math.Abs(dur-tr.TotalTimeS) > 1e-6+0.02*tr.TotalTimeS {
			t.Errorf("%v: rows sum %vs, total %vs", plat.ConfigFromID(id), dur, tr.TotalTimeS)
		}
		if energy > tr.TotalEnergy*1.05 {
			t.Errorf("%v: rows energy %v exceeds total %v", plat.ConfigFromID(id), energy, tr.TotalEnergy)
		}
	}
}

func TestTracesSameWork(t *testing.T) {
	set, _, _ := buildSet(t, testConfigs)
	for _, tr := range set.Traces {
		ratio := float64(tr.TotalInstr) / float64(set.Work)
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%v: instruction total %d deviates from reference %d",
				tr.Config, tr.TotalInstr, set.Work)
		}
	}
}

func TestFixedReplayMatchesTrace(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	for id, tr := range set.Traces {
		cfg := plat.ConfigFromID(id)
		res, err := set.Replay(&FixedPolicy{Config: cfg}, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if math.Abs(res.TimeS-tr.TotalTimeS) > 0.05*tr.TotalTimeS+1e-6 {
			t.Errorf("%v: replay %vs vs trace %vs", cfg, res.TimeS, tr.TotalTimeS)
		}
		if res.Switches != 0 {
			t.Errorf("%v: fixed replay switched %d times", cfg, res.Switches)
		}
	}
}

func TestOracleTBeatsEveryFixedConfig(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	oracle, err := set.Replay(OracleT(), plat.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	// The oracle starts on 4L4B and must pay a forced first row plus one
	// switch before it can follow the best trace, hence the small absolute
	// allowance on top of the relative margin.
	allowance := 2*200e-6 + 2*150e-6
	for _, tr := range set.Traces {
		if oracle.TimeS > tr.TotalTimeS*1.05+allowance {
			t.Errorf("oracle-T %vs worse than fixed %v at %vs", oracle.TimeS, tr.Config, tr.TotalTimeS)
		}
	}
}

func TestOracleEBeatsEveryFixedConfigOnEnergy(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	oracle, err := set.Replay(OracleE(), hw.Config{Little: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same allowance reasoning as the time oracle: boot row + one switch at
	// a conservative 2 W.
	allowance := (2*200e-6 + 2*150e-6) * 2.0
	for _, tr := range set.Traces {
		if oracle.EnergyJ > tr.TotalEnergy*1.05+allowance {
			t.Errorf("oracle-E %vJ worse than fixed %v at %vJ", oracle.EnergyJ, tr.Config, tr.TotalEnergy)
		}
	}
	_ = plat
}

func TestOraclesTradeOff(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	oT, err := set.Replay(OracleT(), plat.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	oE, err := set.Replay(OracleE(), hw.Config{Little: 1})
	if err != nil {
		t.Fatal(err)
	}
	if oT.TimeS > oE.TimeS*1.0001 {
		t.Errorf("oracle-T time %v should not exceed oracle-E time %v", oT.TimeS, oE.TimeS)
	}
	if oE.EnergyJ > oT.EnergyJ*1.0001 {
		t.Errorf("oracle-E energy %v should not exceed oracle-T energy %v", oE.EnergyJ, oT.EnergyJ)
	}
}

func TestRandomPolicyRunsAndIsWorseThanOracle(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	rnd, err := set.Replay(&RandomPolicy{Seed: 7}, plat.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := set.Replay(OracleT(), plat.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	if rnd.TimeS < oracle.TimeS {
		t.Errorf("random (%v) beat the time oracle (%v)", rnd.TimeS, oracle.TimeS)
	}
	if rnd.Switches == 0 {
		t.Error("random policy never switched")
	}
}

func TestAstroReplayLearnsToApproachOracle(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 13, LR: 0.06})
	pol := NewAstroReplay(agent, plat, true)
	for ep := 0; ep < 25; ep++ {
		if _, err := set.Replay(pol, plat.AllOn()); err != nil {
			t.Fatal(err)
		}
	}
	pol.Learn = false
	got, err := set.Replay(pol, plat.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := set.Replay(OracleT(), plat.AllOn())
	worst := 0.0
	for _, tr := range set.Traces {
		if tr.TotalTimeS > worst {
			worst = tr.TotalTimeS
		}
	}
	if got.TimeS > worst {
		t.Errorf("trained astro (%v) worse than worst fixed config (%v)", got.TimeS, worst)
	}
	t.Logf("astro %.6fs, oracle-T %.6fs, worst fixed %.6fs", got.TimeS, oracle.TimeS, worst)
}

func TestOctopusReplay(t *testing.T) {
	set, _, plat := buildSet(t, testConfigs)
	res, err := set.Replay(NewOctopusReplay(plat), hw.Config{Little: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeS <= 0 || res.EnergyJ <= 0 {
		t.Errorf("octopus replay degenerate: %+v", res)
	}
}

func TestReplayRejectsUnrecordedStart(t *testing.T) {
	set, _, _ := buildSet(t, testConfigs[:2])
	if _, err := set.Replay(OracleT(), hw.Config{Big: 3}); err == nil {
		t.Fatal("unrecorded start config accepted")
	}
}

func TestHipsterReplayIgnoresPhases(t *testing.T) {
	plat := hw.OdroidXU4()
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 17})
	h := NewHipsterReplay(agent, plat, false)
	rowA := Row{ProgPhase: features.PhaseCPUBound, HWPhaseID: 5}
	rowB := Row{ProgPhase: features.PhaseBlocked, HWPhaseID: 5}
	cfg := plat.AllOn()
	a := h.Choose(nil, 0, cfg, rowA)
	h.Reset()
	b := h.Choose(nil, 0, cfg, rowB)
	if a != b {
		t.Error("hipster must not distinguish program phases")
	}
}
