package gpu

import (
	"fmt"

	"ebm/internal/cache"
	"ebm/internal/mem"
	"ebm/internal/stats"
)

// SchedState mirrors one GTO scheduler's mutable fields. The warp-range
// partition (base/count) is construction-time configuration.
type SchedState struct {
	ReadyMask  uint64
	MemWait    uint64
	LastIssued int
}

// CoreStatsState mirrors CoreStats for engine checkpoints.
type CoreStatsState struct {
	InstRetired  stats.CounterState
	MemInsts     stats.CounterState
	IssuedSlots  stats.CounterState
	ActiveCycles stats.CounterState
	IdleCycles   stats.CounterState
	MemStall     stats.CounterState
	StallMSHR    stats.CounterState
	FastForward  stats.CounterState
}

// CoreState is a Core's complete serializable snapshot, minus the warp
// streams (owned and restored by the simulator, which tracks the kernel
// phase each stream is bound to).
type CoreState struct {
	TLP          int
	BypassL1     bool
	PendingFills []int // per warp
	Scheds       []SchedState
	MSHRLines    []uint64
	MSHRWaiters  [][]int32
	Outq         []mem.Request
	Wheel        [][]int32 // wheelSize slots, verbatim
	L1           cache.State
	Stats        CoreStatsState
}

// State returns the core's snapshot.
func (c *Core) State() CoreState {
	st := CoreState{
		TLP:          c.tlp,
		BypassL1:     c.bypassL1,
		PendingFills: make([]int, len(c.warps)),
		Scheds:       make([]SchedState, len(c.scheds)),
		Wheel:        make([][]int32, wheelSize),
		L1:           c.L1.State(),
	}
	for i := range c.warps {
		st.PendingFills[i] = c.warps[i].pendingFills
	}
	for i := range c.scheds {
		s := &c.scheds[i]
		st.Scheds[i] = SchedState{ReadyMask: s.readyMask, MemWait: s.memWait, LastIssued: s.lastIssued}
	}
	st.MSHRLines, st.MSHRWaiters = c.mshr.Entries()
	for _, r := range c.outq {
		st.Outq = append(st.Outq, *r)
	}
	for i := range c.wheel {
		if len(c.wheel[i]) > 0 {
			st.Wheel[i] = append([]int32(nil), c.wheel[i]...)
		}
	}
	st.Stats = CoreStatsState{
		InstRetired:  c.Stats.InstRetired.State(),
		MemInsts:     c.Stats.MemInsts.State(),
		IssuedSlots:  c.Stats.IssuedSlots.State(),
		ActiveCycles: c.Stats.ActiveCycles.State(),
		IdleCycles:   c.Stats.IdleCycles.State(),
		MemStall:     c.Stats.MemStall.State(),
		StallMSHR:    c.Stats.StallMSHR.State(),
		FastForward:  c.Stats.FastForward.State(),
	}
	return st
}

// SetState restores the core from a snapshot taken on an identically
// configured core. Out-queue requests are rebuilt as fresh values: the
// engine only reads value fields of queued requests, so copies behave
// identically to the originals. Scheduler parks are derived state, never
// serialized: a restore drops them and the next Tick re-derives them.
func (c *Core) SetState(st CoreState) error {
	if len(st.PendingFills) != len(c.warps) {
		return fmt.Errorf("gpu: core %d state has %d warps, core has %d", c.ID, len(st.PendingFills), len(c.warps))
	}
	if len(st.Scheds) != len(c.scheds) {
		return fmt.Errorf("gpu: core %d state has %d schedulers, core has %d", c.ID, len(st.Scheds), len(c.scheds))
	}
	if len(st.Wheel) != wheelSize {
		return fmt.Errorf("gpu: core %d state has %d wheel slots, want %d", c.ID, len(st.Wheel), wheelSize)
	}
	c.memEpoch++
	c.tlp = st.TLP
	c.bypassL1 = st.BypassL1
	for i := range c.warps {
		c.warps[i].pendingFills = st.PendingFills[i]
	}
	for i := range c.scheds {
		s := &c.scheds[i]
		s.readyMask = st.Scheds[i].ReadyMask
		s.memWait = st.Scheds[i].MemWait
		s.lastIssued = st.Scheds[i].LastIssued
	}
	if err := c.mshr.SetEntries(st.MSHRLines, st.MSHRWaiters); err != nil {
		return fmt.Errorf("gpu: core %d: %w", c.ID, err)
	}
	c.outq = c.outq[:0]
	for i := range st.Outq {
		r := new(mem.Request)
		*r = st.Outq[i]
		c.outq = append(c.outq, r)
	}
	c.wheelBusy = 0
	for i := range c.wheel {
		c.wheel[i] = append(c.wheel[i][:0], st.Wheel[i]...)
		c.wheelBusy += len(c.wheel[i])
	}
	if err := c.L1.SetState(st.L1); err != nil {
		return fmt.Errorf("gpu: core %d L1: %w", c.ID, err)
	}
	c.Stats.InstRetired.SetState(st.Stats.InstRetired)
	c.Stats.MemInsts.SetState(st.Stats.MemInsts)
	c.Stats.IssuedSlots.SetState(st.Stats.IssuedSlots)
	c.Stats.ActiveCycles.SetState(st.Stats.ActiveCycles)
	c.Stats.IdleCycles.SetState(st.Stats.IdleCycles)
	c.Stats.MemStall.SetState(st.Stats.MemStall)
	c.Stats.StallMSHR.SetState(st.Stats.StallMSHR)
	c.Stats.FastForward.SetState(st.Stats.FastForward)
	return nil
}
