package sched

import (
	"astro/internal/hw"
	"astro/internal/sim"
)

// GTS reimplements ARM's Global Task Scheduling, the paper's OS baseline:
// every core is visible to the scheduler; per-task load tracking migrates
// compute-intensive tasks to big cores and light tasks to LITTLE cores,
// with periodic balancing to avoid crowding the big cluster (Sec. 4.2).
type GTS struct {
	// UpLoad is the tracked-load threshold above which a task belongs on a
	// big core; DownLoad the threshold below which it belongs on a LITTLE.
	UpLoad   float64
	DownLoad float64
}

// NewGTS returns GTS with the default thresholds.
func NewGTS() *GTS { return &GTS{UpLoad: 0.55, DownLoad: 0.25} }

// Name implements sim.OSPolicy.
func (g *GTS) Name() string { return "gts" }

// cluster selects active cores by type. Placement filters the machine's
// shared active-core list in place instead of copying it into per-cluster
// slices, so GTS allocates nothing per decision and stays stateless (one
// instance may serve several machines at once).
type cluster uint8

const (
	bigCluster cluster = 1 << iota
	littleCluster
	anyCluster = bigCluster | littleCluster
)

func clusterOf(m *sim.Machine, ci int) cluster {
	if m.CoreType(ci) == hw.Big {
		return bigCluster
	}
	return littleCluster
}

// clusterSizes counts the active big and LITTLE cores.
func clusterSizes(m *sim.Machine) (bigs, littles int) {
	for _, ci := range m.ActiveCoreIDs() {
		if clusterOf(m, ci) == bigCluster {
			bigs++
		} else {
			littles++
		}
	}
	return
}

// leastLoaded returns the active core in cl with the shortest run queue,
// keeping prefer on a tie. It visits the bigs, then the LITTLEs, each in
// core order: the order in which tie-breaks resolve.
func leastLoaded(m *sim.Machine, cl cluster, prefer int) int {
	best := -1
	bestLen := 0
	for _, pass := range [...]cluster{bigCluster, littleCluster} {
		if cl&pass == 0 {
			continue
		}
		for _, ci := range m.ActiveCoreIDs() {
			if clusterOf(m, ci) != pass {
				continue
			}
			l := m.QueueLen(ci)
			if best == -1 || l < bestLen || (l == bestLen && ci == prefer) {
				best, bestLen = ci, l
			}
		}
	}
	return best
}

// PlaceThread implements sim.OSPolicy. New tasks start on big cores
// (performance-first, as GTS does); thereafter tracked load decides.
func (g *GTS) PlaceThread(m *sim.Machine, t *sim.Thread) int {
	bigs, littles := clusterSizes(m)
	switch {
	case bigs == 0:
		return leastLoaded(m, littleCluster, t.Core())
	case littles == 0:
		return leastLoaded(m, bigCluster, t.Core())
	case t.Instructions() == 0 || t.Load >= g.UpLoad:
		return leastLoaded(m, bigCluster, t.Core())
	case t.Load <= g.DownLoad:
		return leastLoaded(m, littleCluster, t.Core())
	default:
		return leastLoaded(m, anyCluster, t.Core())
	}
}

// Rebalance implements sim.OSPolicy: up-migrate heavy tasks stuck on LITTLE
// cores, down-migrate light tasks hogging big cores, then even out queue
// lengths inside each cluster.
func (g *GTS) Rebalance(m *sim.Machine) {
	bigs, littles := clusterSizes(m)
	if bigs > 0 && littles > 0 {
		for _, t := range m.Threads() {
			if !t.Ready() {
				continue
			}
			onBig := m.CoreType(t.Core()) == hw.Big
			if !onBig && t.Load >= g.UpLoad {
				target := leastLoaded(m, bigCluster, t.Core())
				if m.QueueLen(target) <= m.QueueLen(t.Core()) {
					m.MigrateThread(t, target)
				}
			} else if onBig && t.Load > 0 && t.Load <= g.DownLoad {
				target := leastLoaded(m, littleCluster, t.Core())
				if m.QueueLen(target) <= m.QueueLen(t.Core())+1 {
					m.MigrateThread(t, target)
				}
			}
		}
	}
	g.evenCluster(m, bigCluster, bigs)
	g.evenCluster(m, littleCluster, littles)
}

// evenCluster moves ready threads from the longest to the shortest run
// queue among the n active cores of cl until they differ by at most one.
func (g *GTS) evenCluster(m *sim.Machine, cl cluster, n int) {
	if n < 2 {
		return
	}
	for iter := 0; iter < 8; iter++ {
		minC, maxC := -1, -1
		minL, maxL := 0, 0
		for _, ci := range m.ActiveCoreIDs() {
			if clusterOf(m, ci) != cl {
				continue
			}
			l := m.QueueLen(ci)
			if minC == -1 || l < minL {
				minC, minL = ci, l
			}
			if maxC == -1 || l > maxL {
				maxC, maxL = ci, l
			}
		}
		if maxL-minL <= 1 {
			return
		}
		moved := false
		for _, t := range m.Threads() {
			if t.Ready() && t.Core() == maxC && m.MigrateThread(t, minC) {
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}
