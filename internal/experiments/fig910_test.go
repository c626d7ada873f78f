package experiments

import (
	"strings"
	"testing"

	"astro/internal/stats"
)

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trace study is slow")
	}
	r, err := Fig9(Small)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{"4L4B", "1L0B", "Oracle(E)", "Oracle(T)", "Astro", "Hipster", "Octopus-Man", "Random"}
	if len(r.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(wantRows))
	}
	for _, name := range wantRows {
		row := r.Row(name)
		if row == nil {
			t.Fatalf("missing strategy %s", name)
		}
		if row.TimeS <= 0 || row.EnergyJ <= 0 {
			t.Errorf("%s: degenerate row %+v", name, row)
		}
	}
	ot, oe := r.Row("Oracle(T)"), r.Row("Oracle(E)")
	astro, slow := r.Row("Astro"), r.Row("1L0B")
	rnd := r.Row("Random")
	// Oracle(T) must be the fastest strategy (small numeric slack).
	for _, row := range r.Rows {
		if row.TimeS < ot.TimeS*0.999 {
			t.Errorf("%s (%.6fs) beat Oracle(T) (%.6fs)", row.Strategy, row.TimeS, ot.TimeS)
		}
	}
	// Oracle(E) must use the least energy.
	for _, row := range r.Rows {
		if row.EnergyJ < oe.EnergyJ*0.999 {
			t.Errorf("%s (%.6fJ) beat Oracle(E) (%.6fJ)", row.Strategy, row.EnergyJ, oe.EnergyJ)
		}
	}
	// The paper's big contrasts: 1L0B is far slower than Astro; Astro is
	// within striking distance of the time oracle and beats random.
	if !(slow.TimeS > astro.TimeS*2) {
		t.Errorf("1L0B (%.6fs) should be >2x Astro (%.6fs)", slow.TimeS, astro.TimeS)
	}
	if !(astro.TimeS <= rnd.TimeS*1.001) {
		t.Errorf("Astro (%.6fs) should not lose to Random (%.6fs)", astro.TimeS, rnd.TimeS)
	}
	if astro.TimeS > ot.TimeS*2.0 {
		t.Errorf("Astro (%.6fs) too far from Oracle(T) (%.6fs)", astro.TimeS, ot.TimeS)
	}
	out := r.Render()
	for _, want := range []string{"FIG 9", "RQ1", "RQ2", "RQ3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig9WidthIdentity pins that fig9's parallel trace recording and
// concurrent learner training leave the figure untouched: the rendered
// output on one executor worker and on four is byte-identical.
func TestFig9WidthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("trace study is slow")
	}
	defer Configure(ExecConfig{Workers: Workers()})
	var outs []string
	for _, workers := range []int{1, 4} {
		Configure(ExecConfig{Workers: workers})
		r, err := Fig9(Small)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, r.Render())
	}
	if outs[0] != outs[1] {
		t.Fatalf("fig9 differs between 1 and 4 workers:\n-- 1 --\n%s\n-- 4 --\n%s", outs[0], outs[1])
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("device study is slow")
	}
	r, err := Fig10(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, cell := range []Fig10Cell{row.GTS, row.Static, row.Hybrid} {
			if len(cell.Times) != r.Samples {
				t.Fatalf("%s: %d samples, want %d", row.Benchmark, len(cell.Times), r.Samples)
			}
			for i := range cell.Times {
				if cell.Times[i] <= 0 || cell.Energies[i] <= 0 {
					t.Errorf("%s: degenerate sample", row.Benchmark)
				}
			}
		}
		for _, p := range []float64{row.PStatic, row.PHybrid, row.PStaticE, row.PHybridE} {
			if p < 0 || p > 1 {
				t.Errorf("%s: p-value %v out of range", row.Benchmark, p)
			}
		}
		// A flavour can lose (the paper's particlefilter static does), but
		// nothing should blow up past 4x GTS.
		g := stats.Mean(row.GTS.Times)
		if s := stats.Mean(row.Static.Times); s > g*4 {
			t.Errorf("%s: static %.6fs vs GTS %.6fs (blow-up)", row.Benchmark, s, g)
		}
		if h := stats.Mean(row.Hybrid.Times); h > g*4 {
			t.Errorf("%s: hybrid %.6fs vs GTS %.6fs (blow-up)", row.Benchmark, h, g)
		}
	}
	tw, ew := r.Wins()
	if tw < 3 {
		t.Errorf("Astro beats GTS on only %d/7 benchmarks (time):\n%s", tw, r.Render())
	}
	if ew < 4 {
		t.Errorf("Astro beats GTS on only %d/7 benchmarks (energy):\n%s", ew, r.Render())
	}
	if !strings.Contains(r.Render(), "RQ4") {
		t.Error("render missing RQ4")
	}
}

func TestHeadlineFromFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f9, err := Fig9(Small)
	if err != nil {
		t.Fatal(err)
	}
	h := MakeHeadline(f9, nil, nil)
	if h.Fixed1LVsAstroTimeX < 2 {
		t.Errorf("1L0B/Astro time ratio %v too small", h.Fixed1LVsAstroTimeX)
	}
	if !strings.Contains(h.Render(), "measured") {
		t.Error("headline render broken")
	}
}
