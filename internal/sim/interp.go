package sim

import (
	"math"

	"astro/internal/cache"
	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/ir"
)

// burstStatus describes how a burst of execution ended.
type burstStatus uint8

const (
	stRun     burstStatus = iota // keep going (internal)
	stQuantum                    // budget exhausted
	stSync                       // stopped before a synchronizing op
	stBlocked                    // thread blocked
	stDone                       // thread finished
	stErr                        // runtime error (machine failed)
)

// burstCtx accumulates the cost and mix of one burst.
type burstCtx struct {
	cycles float64
	instr  uint64
	fp     uint64
	acc    uint64
	miss   uint64
}

// coreStep runs one scheduling step on core c: pick a thread if needed,
// execute (at most one sync op plus a burst of pure compute), account time,
// energy and counters, then reschedule.
func (m *Machine) coreStep(c *core) {
	if c.cur == nil {
		if len(c.runq) == 0 {
			return // idle; a placeThread will re-arm us
		}
		c.cur = c.runq[0]
		// Pop-front by copy-down: re-slicing from the front leaks capacity
		// and makes the enqueue side reallocate under sustained rotation.
		copy(c.runq, c.runq[1:])
		c.runq = c.runq[:len(c.runq)-1]
		c.cur.state = tsRunning
	}
	m.quanta++ // telemetry accumulator only; flushed once at run end
	t := c.cur
	start := maxf(m.now, c.availAt)
	if c.active && start > c.idleFrom {
		m.meter.Add(start-c.idleFrom, c.spec.IdleWatts)
	}

	var bc burstCtx
	budget := m.opts.QuantumS * c.spec.CyclesPerSecond()
	status := stRun

	// Execute at most one synchronizing instruction, globally ordered.
	if in, ok := m.nextInstr(t); ok && isSyncOp(in) {
		status = m.execSync(c, t, in, &bc)
	}
	if m.err != nil {
		return
	}
	// The sync op may have disabled this core or migrated the thread.
	if c.cur != t {
		m.finishBurst(c, t, start, &bc)
		return
	}
	if status == stRun {
		if m.prog != nil {
			status = m.runBurstFast(c, t, budget, &bc)
		} else {
			status = m.runBurst(c, t, budget, &bc)
		}
	}
	if m.err != nil {
		return
	}
	end := m.finishBurst(c, t, start, &bc)

	switch status {
	case stDone:
		c.cur = nil
		m.exitThread(t)
		if m.live == 0 {
			if end > m.doneTime {
				m.doneTime = end
			}
			return
		}
		m.scheduleCoreRun(c, end)
	case stBlocked:
		c.cur = nil
		m.scheduleCoreRun(c, end)
	case stQuantum:
		if len(c.runq) > 0 {
			t.state = tsReady
			c.runq = append(c.runq, t)
			c.cur = nil
		}
		m.scheduleCoreRun(c, end)
	default: // stSync or stRun: resume on next event
		m.scheduleCoreRun(c, end)
	}
}

// finishBurst converts accumulated cycles to time, charges energy and
// updates counters; returns the burst end time.
func (m *Machine) finishBurst(c *core, t *Thread, start float64, bc *burstCtx) float64 {
	dur := bc.cycles / c.spec.CyclesPerSecond()
	if t.migrPenaltyS > 0 {
		dur += t.migrPenaltyS
		t.migrPenaltyS = 0
	}
	end := start + dur
	if dur > 0 {
		mix := hw.BurstMix{}
		if bc.instr > 0 {
			mix.FPFrac = float64(bc.fp) / float64(bc.instr)
		}
		if bc.acc > 0 {
			mix.MissRate = float64(bc.miss) / float64(bc.acc)
		}
		pw := c.spec.BusyPower(mix)
		m.meter.Add(dur, pw)
		c.burstStart, c.burstEnd, c.burstPower = start, end, pw
	}
	c.availAt = end
	c.idleFrom = end
	c.wBusy += dur
	c.wInstr += bc.instr
	c.wCycles += uint64(bc.cycles)
	m.tCycles += uint64(bc.cycles)
	c.wAcc += bc.acc
	c.wMiss += bc.miss
	c.tInstr += bc.instr
	t.instr += bc.instr
	t.busyAcc += dur
	return end
}

// nextInstr returns the instruction the thread will execute next.
func (m *Machine) nextInstr(t *Thread) (*ir.Instr, bool) {
	if len(t.frames) == 0 {
		return nil, false
	}
	fr := &t.frames[len(t.frames)-1]
	blk := fr.fn.Blocks[fr.block]
	if int(fr.pc) >= len(blk.Instrs) {
		return nil, false
	}
	return &blk.Instrs[fr.pc], true
}

// isSyncOp reports whether the instruction has globally visible effects and
// must execute at a globally ordered point.
func isSyncOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSpawn, ir.OpSetConfig, ir.OpDetermineConf:
		return true
	case ir.OpBuiltin:
		id := ir.BuiltinID(in.Sym)
		if id == ir.BBarrierInit {
			return true
		}
		bi := ir.Builtin(id)
		return bi.Blocking || bi.IsLock || bi.IsBarrier || bi.IsIO || bi.IsNet || bi.IsSleep
	}
	return false
}

// runBurst interprets pure instructions until the cycle budget is exhausted,
// a sync op is reached, or the thread finishes.
func (m *Machine) runBurst(c *core, t *Thread, budget float64, bc *burstCtx) burstStatus {
	spec := c.spec
	for bc.cycles < budget {
		fr := &t.frames[len(t.frames)-1]
		in := &fr.fn.Blocks[fr.block].Instrs[fr.pc]
		switch in.Op {
		case ir.OpNop:
			bc.cycles += 1
			fr.pc++

		case ir.OpConstI:
			fr.regs[in.Dst] = uint64(in.Imm)
			bc.cycles += spec.CPIIntALU * 0.5
			fr.pc++
		case ir.OpConstF:
			fr.regs[in.Dst] = f2b(in.FImm)
			bc.cycles += spec.CPIIntALU * 0.5
			fr.pc++
		case ir.OpMov:
			fr.regs[in.Dst] = fr.regs[in.A]
			bc.cycles += spec.CPIIntALU * 0.5
			fr.pc++

		case ir.OpAdd:
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) + int64(fr.regs[in.B]))
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpSub:
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) - int64(fr.regs[in.B]))
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpMul:
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) * int64(fr.regs[in.B]))
			bc.cycles += spec.CPIIntALU * 2
			fr.pc++
		case ir.OpDiv:
			d := int64(fr.regs[in.B])
			if d == 0 {
				m.fail("integer division by zero in %s (thread %d)", fr.fn.Name, t.ID)
				return stErr
			}
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) / d)
			bc.cycles += spec.CPIIntALU * 6
			fr.pc++
		case ir.OpRem:
			d := int64(fr.regs[in.B])
			if d == 0 {
				m.fail("integer remainder by zero in %s (thread %d)", fr.fn.Name, t.ID)
				return stErr
			}
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) % d)
			bc.cycles += spec.CPIIntALU * 6
			fr.pc++
		case ir.OpAnd:
			fr.regs[in.Dst] = fr.regs[in.A] & fr.regs[in.B]
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpOr:
			fr.regs[in.Dst] = fr.regs[in.A] | fr.regs[in.B]
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpXor:
			fr.regs[in.Dst] = fr.regs[in.A] ^ fr.regs[in.B]
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpShl:
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) << (uint64(fr.regs[in.B]) & 63))
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpShr:
			fr.regs[in.Dst] = uint64(int64(fr.regs[in.A]) >> (uint64(fr.regs[in.B]) & 63))
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpNeg:
			fr.regs[in.Dst] = uint64(-int64(fr.regs[in.A]))
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpNot:
			if fr.regs[in.A] == 0 {
				fr.regs[in.Dst] = 1
			} else {
				fr.regs[in.Dst] = 0
			}
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			a, b := int64(fr.regs[in.A]), int64(fr.regs[in.B])
			fr.regs[in.Dst] = boolBit(intCmp(in.Op, a, b))
			bc.cycles += spec.CPIIntALU
			fr.pc++

		case ir.OpFAdd:
			fr.regs[in.Dst] = f2b(b2f(fr.regs[in.A]) + b2f(fr.regs[in.B]))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpFSub:
			fr.regs[in.Dst] = f2b(b2f(fr.regs[in.A]) - b2f(fr.regs[in.B]))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpFMul:
			fr.regs[in.Dst] = f2b(b2f(fr.regs[in.A]) * b2f(fr.regs[in.B]))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpFDiv:
			fr.regs[in.Dst] = f2b(b2f(fr.regs[in.A]) / b2f(fr.regs[in.B]))
			bc.cycles += spec.CPIFPALU * 4
			bc.fp++
			fr.pc++
		case ir.OpFNeg:
			fr.regs[in.Dst] = f2b(-b2f(fr.regs[in.A]))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpFEq, ir.OpFNe, ir.OpFLt, ir.OpFLe, ir.OpFGt, ir.OpFGe:
			a, b := b2f(fr.regs[in.A]), b2f(fr.regs[in.B])
			fr.regs[in.Dst] = boolBit(floatCmp(in.Op, a, b))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpI2F:
			fr.regs[in.Dst] = f2b(float64(int64(fr.regs[in.A])))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++
		case ir.OpF2I:
			fr.regs[in.Dst] = uint64(int64(b2f(fr.regs[in.A])))
			bc.cycles += spec.CPIFPALU
			bc.fp++
			fr.pc++

		case ir.OpLocalAddr:
			idx := in.Imm
			if in.A != ir.NoReg {
				idx = int64(fr.regs[in.A])
			}
			if m.opts.BoundsCheck && (idx < 0 || idx >= fr.fn.Arrays[in.Sym].Size) {
				m.fail("index %d out of range for array %s[%d] in %s (thread %d)",
					idx, fr.fn.Arrays[in.Sym].Name, fr.fn.Arrays[in.Sym].Size, fr.fn.Name, t.ID)
				return stErr
			}
			fr.regs[in.Dst] = uint64(fr.arrays[in.Sym] + idx)
			bc.cycles += spec.CPIIntALU
			fr.pc++
		case ir.OpGlobalAddr:
			idx := in.Imm
			if in.A != ir.NoReg {
				idx = int64(fr.regs[in.A])
			}
			g := &m.mod.Globals[in.Sym]
			if m.opts.BoundsCheck && (idx < 0 || idx >= g.Size) {
				m.fail("index %d out of range for global %s[%d] in %s (thread %d)",
					idx, g.Name, g.Size, fr.fn.Name, t.ID)
				return stErr
			}
			fr.regs[in.Dst] = uint64(m.mod.GlobalBase(int(in.Sym)) + idx)
			bc.cycles += spec.CPIIntALU
			fr.pc++

		case ir.OpLoadI, ir.OpLoadF:
			addr := int64(fr.regs[in.A])
			if addr < 0 || addr >= m.memCells {
				m.fail("load from invalid address %d in %s (thread %d)", addr, fr.fn.Name, t.ID)
				return stErr
			}
			var v uint64 // cells past the backed prefix read as zero
			if addr < int64(len(m.mem)) {
				v = m.mem[addr]
			}
			fr.regs[in.Dst] = v
			bc.cycles += spec.CPIMem + m.memLatency(c, addr, bc)
			fr.pc++
		case ir.OpStoreI, ir.OpStoreF:
			addr := int64(fr.regs[in.A])
			if addr < 0 || addr >= m.memCells {
				m.fail("store to invalid address %d in %s (thread %d)", addr, fr.fn.Name, t.ID)
				return stErr
			}
			if addr >= int64(len(m.mem)) {
				m.growMem(addr)
			}
			m.mem[addr] = fr.regs[in.B]
			bc.cycles += spec.CPIMem + m.memLatency(c, addr, bc)
			fr.pc++

		case ir.OpBr:
			fr.block = in.A
			fr.pc = 0
			bc.cycles += spec.CPIBranch
		case ir.OpCBr:
			if fr.regs[in.A] != 0 {
				fr.block = in.B
			} else {
				fr.block = in.C
			}
			fr.pc = 0
			bc.cycles += spec.CPIBranch
		case ir.OpRet:
			var bits uint64
			hasRet := in.A != ir.NoReg
			if hasRet {
				bits = fr.regs[in.A]
			}
			bc.cycles += spec.CPICall
			bc.instr++
			if t.popFrame(bits, hasRet) {
				return stDone
			}
			continue // frame changed; do not advance pc here

		case ir.OpCall:
			callee := m.mod.Funcs[in.Sym]
			regs := t.allocRegs(len(callee.Regs))
			for i, a := range in.Args {
				regs[i] = fr.regs[a]
			}
			fr.pc++ // return to the next instruction
			if _, err := m.pushFramePrepared(t, int(in.Sym), callee, regs, in.Dst); err != nil {
				m.fail("%v", err)
				return stErr
			}
			bc.cycles += spec.CPICall
			bc.instr++
			continue

		case ir.OpBuiltin:
			id := ir.BuiltinID(in.Sym)
			if isSyncOp(in) {
				return stSync
			}
			m.execPureBuiltin(c, t, fr, in, id, bc)
			fr.pc++

		case ir.OpLogPhase:
			t.phase = features.Phase(in.Imm)
			bc.cycles += 25
			fr.pc++
		case ir.OpToggleBlocked:
			t.blockedFlag = in.Imm != 0
			bc.cycles += 20
			fr.pc++

		case ir.OpSpawn, ir.OpSetConfig, ir.OpDetermineConf:
			return stSync

		default:
			m.fail("unknown opcode %s in %s", in.Op.Name(), fr.fn.Name)
			return stErr
		}
		bc.instr++
	}
	return stQuantum
}

// memLatency performs a cache access and returns the added latency cycles.
func (m *Machine) memLatency(c *core, addr int64, bc *burstCtx) float64 {
	bc.acc++
	switch c.hier.Access(uint64(addr) * 8) {
	case cache.L1:
		return c.spec.L1HitCycles
	case cache.L2:
		return c.spec.L2HitCycles
	default:
		bc.miss++
		return c.spec.L2HitCycles + c.spec.DRAMCycles(m.plat.DRAMLatencyNs)
	}
}

// execPureBuiltin executes builtins with no globally visible effects.
func (m *Machine) execPureBuiltin(c *core, t *Thread, fr *frame, in *ir.Instr, id ir.BuiltinID, bc *burstCtx) {
	bi := ir.Builtin(id)
	bc.cycles += float64(bi.BaseCycles)
	bc.fp += uint64(bi.FPWork)
	set := func(bits uint64) {
		if in.Dst != ir.NoReg {
			fr.regs[in.Dst] = bits
		}
	}
	argF := func(i int) float64 { return b2f(fr.regs[in.Args[i]]) }
	argI := func(i int) int64 { return int64(fr.regs[in.Args[i]]) }
	switch id {
	case ir.BTid:
		set(uint64(t.ID))
	case ir.BNumCores:
		set(uint64(int64(m.cfg.Cores())))
	case ir.BClockMs:
		now := m.now + bc.cycles/c.spec.CyclesPerSecond()
		set(uint64(int64(now * 1000)))
	case ir.BRandInt:
		n := argI(0)
		if n <= 0 {
			set(0)
		} else {
			set(t.threadRand() % uint64(n))
		}
	case ir.BRandFloat:
		set(f2b(t.threadRandFloat()))
	case ir.BSqrt:
		set(f2b(math.Sqrt(argF(0))))
	case ir.BSin:
		set(f2b(math.Sin(argF(0))))
	case ir.BCos:
		set(f2b(math.Cos(argF(0))))
	case ir.BExp:
		set(f2b(math.Exp(argF(0))))
	case ir.BLog:
		set(f2b(math.Log(argF(0))))
	case ir.BPow:
		set(f2b(math.Pow(argF(0), argF(1))))
	case ir.BFabs:
		set(f2b(math.Abs(argF(0))))
	case ir.BFloor:
		set(f2b(math.Floor(argF(0))))
	case ir.BAbsI:
		v := argI(0)
		if v < 0 {
			v = -v
		}
		set(uint64(v))
	case ir.BMinI:
		a, b := argI(0), argI(1)
		if b < a {
			a = b
		}
		set(uint64(a))
	case ir.BMaxI:
		a, b := argI(0), argI(1)
		if b > a {
			a = b
		}
		set(uint64(a))
	default:
		m.fail("builtin %s reached pure execution path", bi.Name)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func intCmp(op ir.Opcode, a, b int64) bool {
	switch op {
	case ir.OpEq:
		return a == b
	case ir.OpNe:
		return a != b
	case ir.OpLt:
		return a < b
	case ir.OpLe:
		return a <= b
	case ir.OpGt:
		return a > b
	default:
		return a >= b
	}
}

func floatCmp(op ir.Opcode, a, b float64) bool {
	switch op {
	case ir.OpFEq:
		return a == b
	case ir.OpFNe:
		return a != b
	case ir.OpFLt:
		return a < b
	case ir.OpFLe:
		return a <= b
	case ir.OpFGt:
		return a > b
	default:
		return a >= b
	}
}
