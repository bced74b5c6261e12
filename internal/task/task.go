// Package task implements a task-based intermittent execution runtime in
// the style of Alpaca (Maeng et al., OOPSLA'17), the state of the art the
// paper compares against. Programs are chains of tasks; each task executes
// atomically with respect to power failures:
//
//   - writes to task-shared non-volatile data are redo-logged during
//     execution;
//   - at the task transition the log is committed to the home locations
//     under a two-phase protocol, so a failure during commit replays the
//     (idempotent) redo log on reboot;
//   - a failure during execution discards the log and restarts the task.
//
// This reproduces the cost structure the paper attributes to prior
// task-based systems: every write pays dynamic buffering, every transition
// pays commit plus dispatch, and every failure wastes the partial task.
package task

import (
	"fmt"

	"repro/internal/mcu"
	"repro/internal/mem"
)

// ID names a task within a runtime. Done terminates the program.
type ID int32

// Done is the transition target that ends the program.
const Done ID = -1

// execution phases of the two-phase commit protocol.
const (
	phaseExec   = 0
	phaseCommit = 1
)

// state-region word offsets.
const (
	stPhase = 0 // phaseExec or phaseCommit
	stCur   = 1 // current task id
	stNext  = 2 // transition target staged before commit
	stCount = 3 // redo-log entry count

	stateWords = 4
)

// Func is a task body. It must be idempotent up to its task-shared writes
// (which the runtime privatizes) and returns the next task.
type Func func(*Ctx) ID

// Runtime executes a task graph on a device.
type Runtime struct {
	dev *mcu.Device

	tasks []taskEntry
	state *mem.Region
	log   *mem.Region // interleaved (packed address, value) pairs
	cap   int

	shared []*mem.Region
	ids    map[*mem.Region]int

	// The write set maps (region, word) to log slots. It models Alpaca's
	// privatization lookup and is volatile: cleared at task start and
	// implicitly discarded by restarts. The host-side representation is a
	// dense epoch-stamped table per shared region — a wsSlot entry is live
	// only when its wsMark equals the current epoch, so the per-task clear
	// is one counter bump instead of a map wipe.
	wsSlot  [][]int32
	wsMark  [][]uint32
	wsEpoch uint32

	// Two-entry cache for the region→id resolution: task kernels privatize
	// through the same one or two regions (e.g. a finalize pass reading the
	// partial and writing the output) for thousands of consecutive
	// accesses, so this skips the map lookup on nearly every access.
	lastReg, prevReg *mem.Region
	lastID, prevID   int

	// logScratch is the reusable staging buffer for WriteRange's
	// interleaved (address, value) log entries.
	logScratch []int64
}

// regionID resolves a task-shared region to its dense id, panicking on
// unregistered regions.
func (rt *Runtime) regionID(r *mem.Region) int {
	if r == rt.lastReg {
		return rt.lastID
	}
	if r == rt.prevReg {
		rt.lastReg, rt.prevReg = r, rt.lastReg
		rt.lastID, rt.prevID = rt.prevID, rt.lastID
		return rt.lastID
	}
	id, ok := rt.ids[r]
	if !ok {
		panic(fmt.Sprintf("task: region %q not registered as task-shared", r.Name))
	}
	rt.prevReg, rt.prevID = rt.lastReg, rt.lastID
	rt.lastReg, rt.lastID = r, id
	return id
}

type taskEntry struct {
	name string
	f    Func
}

// DefaultLogEntries is the redo-log capacity if the caller does not size it.
const DefaultLogEntries = 1024

// New creates a runtime on dev with a redo log of logEntries entries.
// The log and control state live in FRAM and count against its capacity.
func New(dev *mcu.Device, logEntries int) (*Runtime, error) {
	if logEntries <= 0 {
		logEntries = DefaultLogEntries
	}
	state, err := dev.FRAM.Alloc("task.state", stateWords, 2)
	if err != nil {
		return nil, err
	}
	log, err := dev.FRAM.Alloc("task.redolog", 2*logEntries, 4)
	if err != nil {
		dev.FRAM.Release(state)
		return nil, err
	}
	// Both regions implement the two-phase commit protocol itself; exempt
	// them from WAR checking.
	dev.MarkProtocol(state, log)
	return &Runtime{
		dev:   dev,
		state: state,
		log:   log,
		cap:   logEntries,
		ids:   make(map[*mem.Region]int),
	}, nil
}

// Release frees the runtime's FRAM footprint.
func (rt *Runtime) Release() {
	rt.dev.FRAM.Release(rt.state)
	rt.dev.FRAM.Release(rt.log)
}

// Add registers a task and returns its ID.
func (rt *Runtime) Add(name string, f Func) ID {
	rt.tasks = append(rt.tasks, taskEntry{name: name, f: f})
	return ID(len(rt.tasks) - 1)
}

// Share registers a non-volatile region as task-shared: reads and writes to
// it from task bodies go through the redo-log protocol.
func (rt *Runtime) Share(r *mem.Region) {
	if _, ok := rt.ids[r]; ok {
		return
	}
	rt.ids[r] = len(rt.shared)
	rt.shared = append(rt.shared, r)
	rt.wsSlot = append(rt.wsSlot, make([]int32, r.Len()))
	rt.wsMark = append(rt.wsMark, make([]uint32, r.Len()))
}

// clearWriteSet invalidates every write-set entry by advancing the epoch.
// On the (rare) wrap to zero the mark tables are zeroed so stale stamps
// from 2³² tasks ago cannot read as live.
func (rt *Runtime) clearWriteSet() {
	rt.wsEpoch++
	if rt.wsEpoch == 0 {
		for _, marks := range rt.wsMark {
			clear(marks)
		}
		rt.wsEpoch = 1
	}
}

// Start initializes the control state to begin execution at entry. This is
// host-side (deploy/boot-time) work.
func (rt *Runtime) Start(entry ID) {
	rt.state.Put(stPhase, phaseExec)
	rt.state.Put(stCur, int64(entry))
	rt.state.Put(stNext, 0)
	rt.state.Put(stCount, 0)
}

// Run drives the task graph to completion under the device's power system.
// It returns mcu.ErrDoesNotComplete if some task cannot finish within the
// device's energy buffer.
func (rt *Runtime) Run() error {
	// One Ctx serves every dispatch of every power-on: it escapes into the
	// task bodies, so allocating it per task, or per reboot, would
	// otherwise dominate the steady-state heap traffic of a pooled fleet
	// (thousands of dispatches and hundreds of reboots per inference).
	ctx := &Ctx{rt: rt}
	return rt.dev.Run(func() {
		// Reboot path: a failure during commit must finish the commit by
		// replaying the (idempotent) redo log.
		if rt.dev.Load(rt.state, stPhase) == phaseCommit {
			rt.replayAndFinish()
		}
		for {
			cur := ID(rt.dev.Load(rt.state, stCur))
			if cur == Done {
				return
			}
			if int(cur) < 0 || int(cur) >= len(rt.tasks) {
				panic(fmt.Sprintf("task: invalid task id %d", cur))
			}
			// Task prologue: discard any stale log from an interrupted
			// execution and reset the volatile privatization table.
			rt.dev.Emit(mcu.TraceTaskBegin, rt.tasks[cur].name, int64(cur))
			rt.dev.Store(rt.state, stCount, 0)
			rt.clearWriteSet()
			next := rt.tasks[cur].f(ctx)
			rt.commit(next)
		}
	})
}

// commit runs the two-phase transition: stage the target, enter commit
// phase, replay the log to the home locations, then finish.
func (rt *Runtime) commit(next ID) {
	dev := rt.dev
	layer, _ := dev.Section()
	dev.SetSection(layer, mcu.PhaseTransition)
	dev.Emit(mcu.TraceTaskCommitStage, rt.TaskName(next), int64(next))
	dev.Store(rt.state, stNext, int64(next))
	dev.Store(rt.state, stPhase, phaseCommit)
	rt.replayAndFinish()
}

// replayAndFinish applies every log entry to its home location and
// completes the transition. It is idempotent: a failure anywhere inside
// re-enters it on reboot.
func (rt *Runtime) replayAndFinish() {
	dev := rt.dev
	layer, _ := dev.Section()
	dev.SetSection(layer, mcu.PhaseTransition)
	n := int(dev.Load(rt.state, stCount))
	dev.Emit(mcu.TraceTaskCommitReplay, layer, int64(n))
	// The log is contiguous, so its reads charge as one bulk batch. The
	// home-location writes commit in maximal consecutive-address runs:
	// bulk WriteRange appends contiguous spans to the log, so most of a
	// tile's entries replay as a handful of StoreRange batches — each
	// charging exactly one store per word of the same kind the scalar
	// loop would, so the brown-out lands on the identical op. Scattered
	// leftovers fall back to the scalar store.
	dev.LoadRange(rt.log, 0, 2*n)
	lw := rt.log.ROWords()
	for j := 0; j < n; {
		addr := lw[2*j]
		region, idx := rt.decode(addr)
		run := j + 1
		for run < n && lw[2*run] == addr+int64(run-j) {
			run++
		}
		// The home writes are redo-logged: once stPhase is durably
		// phaseCommit the task body never re-reads the old values, and a
		// failure mid-replay rewrites the words from the log. Not a WAR
		// hazard even though the body read these words earlier.
		if m := run - j; m >= 4 {
			if cap(rt.logScratch) < m {
				rt.logScratch = make([]int64, m)
			}
			vals := rt.logScratch[:m]
			for t := 0; t < m; t++ {
				vals[t] = lw[2*(j+t)+1]
			}
			dev.MarkLoggedRange(region, idx, m)
			dev.StoreRange(region, idx, vals)
			j = run
			continue
		}
		for ; j < run; j++ {
			r, i := rt.decode(lw[2*j])
			dev.MarkLogged(r, i)
			dev.Store(r, i, lw[2*j+1])
		}
	}
	dev.Store(rt.state, stCur, dev.Load(rt.state, stNext))
	dev.Store(rt.state, stCount, 0)
	dev.Op(mcu.OpDispatch) // scheduler + two-phase commit bookkeeping
	dev.Store(rt.state, stPhase, phaseExec)
	dev.Progress()
}

// pack encodes a (region, index) pair as a single log address word.
func (rt *Runtime) pack(region int, idx int) int64 {
	return int64(region)<<32 | int64(idx)
}

// decode inverts pack.
func (rt *Runtime) decode(addr int64) (*mem.Region, int) {
	return rt.shared[addr>>32], int(addr & 0xffffffff)
}

// Ctx is the view a task body has of the runtime.
type Ctx struct {
	rt *Runtime
}

// Dev exposes the device for compute operations (multiplies, adds) and for
// reads of read-only data such as weights, which need no privatization.
func (c *Ctx) Dev() *mcu.Device { return c.rt.dev }

// Read reads task-shared data, observing the task's own uncommitted writes
// (read-own-write through the redo log).
func (c *Ctx) Read(r *mem.Region, i int) int64 {
	rt := c.rt
	id := rt.regionID(r)
	rt.dev.Op(mcu.OpPrivatize) // dynamic-buffering lookup
	if rt.wsMark[id][i] == rt.wsEpoch {
		return rt.dev.Load(rt.log, 2*int(rt.wsSlot[id][i])+1)
	}
	return rt.dev.Load(r, i)
}

// Write buffers a task-shared write in the redo log; the home location is
// only updated at commit.
func (c *Ctx) Write(r *mem.Region, i int, v int64) {
	rt := c.rt
	id := rt.regionID(r)
	rt.dev.Op(mcu.OpPrivatize) // dynamic-buffering insertion
	if rt.wsMark[id][i] == rt.wsEpoch {
		rt.dev.Store(rt.log, 2*int(rt.wsSlot[id][i])+1, v)
		return
	}
	n := int(rt.dev.Load(rt.state, stCount))
	if n >= rt.cap {
		panic(fmt.Sprintf("task: redo log overflow (%d entries): task writes too much task-shared data", rt.cap))
	}
	rt.dev.Emit(mcu.TracePrivatize, r.Name, int64(n))
	rt.dev.Store(rt.log, 2*n, rt.pack(id, i))
	rt.dev.Store(rt.log, 2*n+1, v)
	rt.dev.Store(rt.state, stCount, int64(n+1))
	rt.wsSlot[id][i] = int32(n)
	rt.wsMark[id][i] = rt.wsEpoch
}

// Fresh reports whether none of the words r[i:i+n] is privatized in the
// task's write set. It is a host-side predicate (no simulated cost) that
// kernels use to choose between the bulk Range forms below and the scalar
// Read/Write calls; the Range forms re-verify it before charging.
func (c *Ctx) Fresh(r *mem.Region, i, n int) bool {
	rt := c.rt
	return rt.allFresh(rt.regionID(r), i, n)
}

// allFresh reports whether no word of [i, i+n) in shared region id has a
// live write-set entry.
func (rt *Runtime) allFresh(id, i, n int) bool {
	epoch := rt.wsEpoch
	for _, m := range rt.wsMark[id][i : i+n] {
		if m == epoch {
			return false
		}
	}
	return true
}

// ReadRange is the bulk form of n consecutive Read calls of words
// r[i:i+n], legal only when none of them is privatized (every read goes to
// the home location). It charges the scalar calls' exact op multiset — n
// privatization lookups, then n home loads — segment-grouped within the
// current task, which never commits mid-range, and returns false without
// charging anything when some word is privatized so the caller can fall
// back to scalar Reads. Values are then read with r.Get, as with
// Device.LoadRange.
func (c *Ctx) ReadRange(r *mem.Region, i, n int) bool {
	rt := c.rt
	if n <= 0 {
		return true
	}
	if !rt.allFresh(rt.regionID(r), i, n) {
		return false
	}
	rt.dev.Ops(mcu.OpPrivatize, n)
	rt.dev.LoadRange(r, i, n)
	return true
}

// WriteRange is the bulk form of len(vals) consecutive Write calls to
// words r[i:i+len(vals)] none of which the task has written before: every
// word then appends a fresh redo-log entry, so the protocol traffic is
// uniform and bulk-chargeable — per word one privatization lookup, one
// log-count load, two contiguous log stores, and one log-count store,
// segment-grouped within the current task. Returns false without side
// effects when some word is already privatized (the scalar path's
// in-place log update applies then). A power failure mid-range leaves
// partial log contents that differ word-for-word from the scalar
// interleaving, but an execution-phase failure restarts the task, which
// resets the log count and write set before any of it can be read.
func (c *Ctx) WriteRange(r *mem.Region, i int, vals []int64) bool {
	rt := c.rt
	n := len(vals)
	if n == 0 {
		return true
	}
	id := rt.regionID(r)
	if !rt.allFresh(id, i, n) {
		return false
	}
	dev := rt.dev
	n0 := int(rt.state.Get(stCount))
	if n0+n > rt.cap {
		panic(fmt.Sprintf("task: redo log overflow (%d entries): task writes too much task-shared data", rt.cap))
	}
	dev.Ops(mcu.OpPrivatize, n)
	// The log-count loads and stores hit the same state word n times; the
	// state region is protocol-exempt from WAR tracking, so charging them
	// as bulk FRAM ops is observationally identical to n scalar accesses.
	dev.Ops(mcu.OpLoadFRAM, n)
	if dev.Tracer() != nil {
		for j := 0; j < n; j++ {
			dev.Emit(mcu.TracePrivatize, r.Name, int64(n0+j))
		}
	}
	if cap(rt.logScratch) < 2*n {
		rt.logScratch = make([]int64, 2*n)
	}
	entries := rt.logScratch[:2*n]
	for j := 0; j < n; j++ {
		entries[2*j] = rt.pack(id, i+j)
		entries[2*j+1] = vals[j]
	}
	dev.StoreRange(rt.log, 2*n0, entries)
	dev.Ops(mcu.OpStoreFRAM, n)
	rt.state.Put(stCount, int64(n0+n))
	epoch := rt.wsEpoch
	slots, marks := rt.wsSlot[id], rt.wsMark[id]
	for j := 0; j < n; j++ {
		slots[i+j] = int32(n0 + j)
		marks[i+j] = epoch
	}
	return true
}

// AccumulateRow is the bulk form of k successive read-modify-write pairs
// (Read then Write) on the single word r[i], as a CSR row walk performs on
// its row's partial accumulator: the first pair reads the home location and
// appends a fresh redo-log entry, each later pair reads and rewrites that
// log slot in place. It charges the scalar sequence's exact op multiset —
// 2k privatization lookups, one home load (shadow-recorded), one log
// append (log-count load, two log stores, log-count store), and k-1
// in-place log loads and stores — and installs final as the entry's value;
// the k-1 intermediate values are never materialized, which is unobservable
// because an execution-phase failure restarts the task and resets the log
// before any of them could be read. The per-pair arithmetic op (FixedAdd)
// stays with the caller, as do the operand loads. Returns false without
// side effects when r[i] is already privatized — the scalar in-place
// update applies then — so callers can fall back per pair.
func (c *Ctx) AccumulateRow(r *mem.Region, i, k int, final int64) bool {
	rt := c.rt
	if k <= 0 {
		return true
	}
	id := rt.regionID(r)
	if rt.wsMark[id][i] == rt.wsEpoch {
		return false
	}
	dev := rt.dev
	n := int(rt.state.Get(stCount))
	if n >= rt.cap {
		panic(fmt.Sprintf("task: redo log overflow (%d entries): task writes too much task-shared data", rt.cap))
	}
	dev.Ops(mcu.OpPrivatize, 2*k)
	dev.LoadRange(r, i, 1) // first pair's home read
	dev.Ops(mcu.OpLoadFRAM, 1)
	dev.Emit(mcu.TracePrivatize, r.Name, int64(n))
	if cap(rt.logScratch) < 2 {
		rt.logScratch = make([]int64, 2)
	}
	entry := rt.logScratch[:2]
	entry[0], entry[1] = rt.pack(id, i), final
	dev.StoreRange(rt.log, 2*n, entry)
	dev.Ops(mcu.OpStoreFRAM, 1)
	rt.state.Put(stCount, int64(n+1))
	// Later pairs: read and rewrite the log slot in place.
	dev.Ops(mcu.OpLoadFRAM, k-1)
	dev.Ops(mcu.OpStoreFRAM, k-1)
	rt.wsSlot[id][i] = int32(n)
	rt.wsMark[id][i] = rt.wsEpoch
	return true
}

// TaskName returns the registered name of a task (for diagnostics).
func (rt *Runtime) TaskName(id ID) string {
	if id == Done {
		return "done"
	}
	return rt.tasks[id].name
}
