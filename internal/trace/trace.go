// Package trace implements the paper's simulated-environment methodology
// (Sec. 4.1): record one execution trace per hardware configuration, then
// combine the 24 traces by choosing, at each checkpoint, which
// configuration's behaviour to consume. Different choice policies yield the
// oracles (optimal energy / optimal time), the fixed and random baselines,
// and replay-trained Astro/Hipster/Octopus-Man.
package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/perfmon"
	"astro/internal/sim"
)

// Row is one checkpoint's worth of recorded behaviour under a fixed
// configuration.
type Row struct {
	Index     int
	DurS      float64
	EnergyJ   float64
	Instr     uint64
	ProgPhase features.Phase
	HWPhaseID int
	HW        perfmon.Counters
}

// MIPS returns the row's instruction rate.
func (r Row) MIPS() float64 {
	if r.DurS == 0 {
		return 0
	}
	return float64(r.Instr) / r.DurS / 1e6
}

// Watts returns the row's average power.
func (r Row) Watts() float64 {
	if r.DurS == 0 {
		return 0
	}
	return r.EnergyJ / r.DurS
}

// Trace is a full fixed-configuration execution.
type Trace struct {
	Config      hw.Config
	Rows        []Row
	TotalInstr  uint64
	TotalTimeS  float64
	TotalEnergy float64

	cumFrac []float64 // cumFrac[i] = fraction of instructions before row i
}

func (tr *Trace) buildIndex() {
	tr.cumFrac = make([]float64, len(tr.Rows)+1)
	var cum uint64
	for i, r := range tr.Rows {
		tr.cumFrac[i] = float64(cum) / float64(tr.TotalInstr)
		cum += r.Instr
	}
	tr.cumFrac[len(tr.Rows)] = float64(cum) / float64(tr.TotalInstr)
}

// rowAt returns the row covering normalized progress p in [0,1) and the
// fraction of the whole program that row covers.
func (tr *Trace) rowAt(p float64) (Row, float64, float64) {
	// Binary search over cumFrac.
	lo, hi := 0, len(tr.Rows)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tr.cumFrac[mid] <= p {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	frac := tr.cumFrac[lo+1] - tr.cumFrac[lo]
	return tr.Rows[lo], tr.cumFrac[lo], frac
}

// Record runs mod pinned to cfg and converts the checkpoint log into a
// trace. The tail of execution past the last checkpoint becomes a final
// synthetic row so that rows account for the whole run.
func Record(mod *ir.Module, plat *hw.Platform, cfg hw.Config, opts sim.Options) (*Trace, error) {
	opts.InitialConfig = cfg
	opts.Actuator = nil
	res, err := sim.Execute(mod, plat, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("trace: config %v: %w", cfg, err)
	}
	tr := &Trace{Config: cfg, TotalInstr: res.Instructions, TotalTimeS: res.TimeS, TotalEnergy: res.EnergyJ}
	var instrSeen uint64
	var timeSeen, energySeen float64
	for _, ck := range res.Checkpoints {
		tr.Rows = append(tr.Rows, Row{
			Index:     ck.Index,
			DurS:      ck.DurS,
			EnergyJ:   ck.EnergyJ,
			Instr:     ck.HW.Instructions,
			ProgPhase: ck.ProgPhase,
			HWPhaseID: ck.HWPhase.ID(),
			HW:        ck.HW,
		})
		instrSeen += ck.HW.Instructions
		timeSeen += ck.DurS
		energySeen += ck.EnergyJ
	}
	if res.Instructions > instrSeen {
		last := Row{
			Index:     len(tr.Rows),
			DurS:      maxf(res.TimeS-timeSeen, 1e-9),
			EnergyJ:   maxf(res.EnergyJ-energySeen, 0),
			Instr:     res.Instructions - instrSeen,
			ProgPhase: features.PhaseOther,
		}
		if n := len(res.Checkpoints); n > 0 {
			last.ProgPhase = res.Checkpoints[n-1].ProgPhase
			last.HWPhaseID = res.Checkpoints[n-1].HWPhase.ID()
			last.HW = res.Checkpoints[n-1].HW
		}
		tr.Rows = append(tr.Rows, last)
	}
	if len(tr.Rows) == 0 || tr.TotalInstr == 0 {
		return nil, fmt.Errorf("trace: config %v produced an empty trace", cfg)
	}
	tr.buildIndex()
	return tr, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Set holds one trace per configuration for a single program+input.
type Set struct {
	Plat   *hw.Platform
	Traces map[int]*Trace // keyed by config id
	Work   uint64         // reference instruction total
}

// RecordSet records traces for every configuration in configs (all 24 by
// default if configs is nil). This is the expensive exhaustive step the
// paper performs once, for fluidanimate. The recordings are independent
// simulations, so up to workers of them run at once; each trace lands at
// its configuration's index, which makes the Set identical to a serial
// recording at any width. On failure it returns the error of the first
// failing configuration in configs order: configurations are claimed in
// order and none is claimed after a failure, so every configuration before
// a failing one has finished when the errors are read.
func RecordSet(mod *ir.Module, plat *hw.Platform, opts sim.Options, configs []hw.Config, workers int) (*Set, error) {
	if configs == nil {
		configs = plat.Configs()
	}
	traces := make([]*Trace, len(configs))
	errs := make([]error, len(configs))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for range min(max(workers, 1), len(configs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(configs) {
					return
				}
				if traces[i], errs[i] = Record(mod, plat, configs[i], opts); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	s := &Set{Plat: plat, Traces: make(map[int]*Trace, len(configs))}
	for i, cfg := range configs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		s.Traces[plat.ConfigID(cfg)] = traces[i]
		if s.Work == 0 {
			s.Work = traces[i].TotalInstr
		}
	}
	return s, nil
}

// Configs lists the recorded configuration ids.
func (s *Set) Configs() []int {
	var ids []int
	for id := 0; id < s.Plat.NumConfigs(); id++ {
		if _, ok := s.Traces[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Policy chooses the configuration to consume next during replay.
type Policy interface {
	Name() string
	// Choose inspects the row just consumed (under cur) and returns the
	// next configuration. step counts consumed rows.
	Choose(s *Set, step int, cur hw.Config, last Row) hw.Config
	// Reset is called at the start of each replay episode.
	Reset()
}

// ReplayResult is a simulated execution assembled from trace rows.
type ReplayResult struct {
	TimeS    float64
	EnergyJ  float64
	Switches int
	Steps    int
}

// Replay assembles an execution by consuming trace rows under pol,
// charging the platform's switch latency (at the average of the two
// configurations' recorded power) for every configuration change.
func (s *Set) Replay(pol Policy, start hw.Config) (ReplayResult, error) {
	pol.Reset()
	cur := start
	if _, ok := s.Traces[s.Plat.ConfigID(cur)]; !ok {
		return ReplayResult{}, fmt.Errorf("trace: start config %v not recorded", cur)
	}
	var out ReplayResult
	p := 0.0
	const eps = 1e-12
	maxRows := 0
	for _, tr := range s.Traces {
		if len(tr.Rows) > maxRows {
			maxRows = len(tr.Rows)
		}
	}
	stepCap := 50*maxRows*s.Plat.NumConfigs() + 10000
	for p < 1-eps {
		tr := s.Traces[s.Plat.ConfigID(cur)]
		row, rowStart, frac := tr.rowAt(p)
		if frac <= 0 {
			return out, fmt.Errorf("trace: empty row at progress %v in %v", p, cur)
		}
		// Consume the remainder of this row. Progress and row boundaries
		// come from different traces, so clamp the overlap into [0, 1] and
		// force strictly increasing progress (a switch can land p a few
		// ulps past the new trace's row end).
		into := (p - rowStart) / frac
		if into < 0 {
			into = 0
		}
		if into > 1 {
			into = 1
		}
		portion := 1 - into
		out.TimeS += row.DurS * portion
		out.EnergyJ += row.EnergyJ * portion
		np := rowStart + frac
		if np <= p {
			np = math.Nextafter(p, 2)
		}
		p = np
		out.Steps++
		if out.Steps > stepCap {
			return out, fmt.Errorf("trace: replay did not converge (%d steps)", out.Steps)
		}
		next := pol.Choose(s, out.Steps, cur, row)
		if _, ok := s.Traces[s.Plat.ConfigID(next)]; !ok {
			next = cur // policies may only pick recorded configs
		}
		if next != cur {
			lat := float64(s.Plat.SwitchLatencyUs) * 1e-6
			out.TimeS += lat
			out.EnergyJ += lat * (row.Watts() + s.Plat.IdleConfigPower(next)) / 2
			out.Switches++
			cur = next
		}
	}
	return out, nil
}
