package dram

import (
	"fmt"

	"ebm/internal/cache"
	"ebm/internal/mem"
	"ebm/internal/stats"
)

// BankState mirrors one GDDR5 bank's timing state.
type BankState struct {
	OpenRow   int64
	ActAt     uint64
	ColReady  uint64
	LastColAt uint64
	PreDone   uint64
}

// EventState is one pending completion event: its fire time, kind, and
// the request by value.
type EventState struct {
	At   uint64
	Kind uint8
	Req  mem.Request
}

// AppStatsState mirrors one application's per-partition Stats block.
type AppStatsState struct {
	BWBytes    stats.CounterState
	RowHits    stats.CounterState
	RowMisses  stats.CounterState
	DRAMReads  stats.CounterState
	DRAMWrites stats.CounterState
	LatencySum stats.CounterState
}

// PartitionState is a Partition's complete serializable snapshot.
// Requests appear by value everywhere; on restore each slot gets a fresh
// copy. A read request in flight to DRAM is aliased twice in the live
// partition (MSHR waiter and dramQ/event entry) — duplicating it is safe
// because the completion path reads only value fields of the event's
// request and delivers the MSHR waiters, so the duplicated event object
// is simply dropped afterwards, exactly like the original would have been
// had it not also been the waiter.
type PartitionState struct {
	L2          cache.State
	Inq         []mem.Request
	MSHRLines   []uint64
	MSHRWaiters [][]mem.Request
	DramQ       []mem.Request
	Banks       []BankState
	BusFreeAt   uint64
	LastActAt   uint64
	LastColAt   uint64
	Events      []EventState // raw heap-array order
	Resp        []mem.Request
	Apps        []AppStatsState
	Refreshes   stats.CounterState
	NextRefresh uint64
	MSHRStalls  stats.CounterState
	BusBusy     stats.CounterState
}

// State returns the partition's snapshot.
func (p *Partition) State() PartitionState {
	st := PartitionState{
		L2:          p.L2.State(),
		Banks:       make([]BankState, len(p.banks)),
		BusFreeAt:   p.busFreeAt,
		LastActAt:   p.lastActAt,
		LastColAt:   p.lastColAt,
		Apps:        make([]AppStatsState, len(p.Apps)),
		Refreshes:   p.Refreshes.State(),
		NextRefresh: p.nextRefresh,
		MSHRStalls:  p.MSHRStalls.State(),
		BusBusy:     p.BusBusy.State(),
	}
	for _, r := range p.inq {
		st.Inq = append(st.Inq, *r)
	}
	lines, waiters := p.mshr.Entries()
	st.MSHRLines = lines
	st.MSHRWaiters = make([][]mem.Request, len(waiters))
	for i, ws := range waiters {
		vs := make([]mem.Request, len(ws))
		for j, w := range ws {
			vs[j] = *w
		}
		st.MSHRWaiters[i] = vs
	}
	for _, e := range p.dramQ {
		st.DramQ = append(st.DramQ, *e.req)
	}
	for i := range p.banks {
		b := &p.banks[i]
		st.Banks[i] = BankState{OpenRow: b.openRow, ActAt: b.actAt, ColReady: b.colReady, LastColAt: b.lastColAt, PreDone: b.preDone}
	}
	for _, e := range p.events {
		st.Events = append(st.Events, EventState{At: e.at, Kind: uint8(e.kind), Req: *e.req})
	}
	for _, r := range p.resp {
		st.Resp = append(st.Resp, *r)
	}
	for i := range p.Apps {
		a := &p.Apps[i]
		st.Apps[i] = AppStatsState{
			BWBytes:    a.BWBytes.State(),
			RowHits:    a.RowHits.State(),
			RowMisses:  a.RowMisses.State(),
			DRAMReads:  a.DRAMReads.State(),
			DRAMWrites: a.DRAMWrites.State(),
			LatencySum: a.LatencySum.State(),
		}
	}
	return st
}

// SetState restores the partition from a snapshot taken on an identically
// configured partition. The event heap array is restored verbatim: it was
// captured from a valid heap, and the sift functions are deterministic
// over the array order. Derived state is rebuilt: the queue's bank/row
// decode and row-hit counts are recomputed, and the partition wakes (it
// is ticked next cycle and works out its sleep again).
func (p *Partition) SetState(st PartitionState) error {
	if len(st.Banks) != len(p.banks) {
		return fmt.Errorf("dram: partition %d state has %d banks, partition has %d", p.ID, len(st.Banks), len(p.banks))
	}
	if len(st.Apps) != len(p.Apps) {
		return fmt.Errorf("dram: partition %d state has %d apps, partition has %d", p.ID, len(st.Apps), len(p.Apps))
	}
	if err := p.L2.SetState(st.L2); err != nil {
		return fmt.Errorf("dram: partition %d L2: %w", p.ID, err)
	}
	clone := func(v mem.Request) *mem.Request {
		r := new(mem.Request)
		*r = v
		return r
	}
	p.inq = p.inq[:0]
	for _, v := range st.Inq {
		p.inq = append(p.inq, clone(v))
	}
	waiters := make([][]*mem.Request, len(st.MSHRWaiters))
	for i, vs := range st.MSHRWaiters {
		ws := make([]*mem.Request, len(vs))
		for j := range vs {
			ws[j] = clone(vs[j])
		}
		waiters[i] = ws
	}
	if err := p.mshr.SetEntries(st.MSHRLines, waiters); err != nil {
		return fmt.Errorf("dram: partition %d: %w", p.ID, err)
	}
	for i := range p.banks {
		b := st.Banks[i]
		p.banks[i] = bank{openRow: b.OpenRow, actAt: b.ActAt, colReady: b.ColReady, lastColAt: b.LastColAt, preDone: b.PreDone}
		p.openHits[i] = 0
	}
	p.openHitsAll = 0
	p.dramQ = p.dramQ[:0]
	for _, v := range st.DramQ {
		p.pushQ(clone(v))
	}
	p.busFreeAt = st.BusFreeAt
	p.lastActAt = st.LastActAt
	p.lastColAt = st.LastColAt
	p.events = p.events[:0]
	for _, e := range st.Events {
		p.events = append(p.events, event{at: e.At, kind: eventKind(e.Kind), req: clone(e.Req)})
	}
	p.resp = p.resp[:0]
	for _, v := range st.Resp {
		p.resp = append(p.resp, clone(v))
	}
	for i := range p.Apps {
		a := &p.Apps[i]
		s := st.Apps[i]
		a.BWBytes.SetState(s.BWBytes)
		a.RowHits.SetState(s.RowHits)
		a.RowMisses.SetState(s.RowMisses)
		a.DRAMReads.SetState(s.DRAMReads)
		a.DRAMWrites.SetState(s.DRAMWrites)
		a.LatencySum.SetState(s.LatencySum)
	}
	p.Refreshes.SetState(st.Refreshes)
	p.nextRefresh = st.NextRefresh
	p.MSHRStalls.SetState(st.MSHRStalls)
	p.BusBusy.SetState(st.BusBusy)
	p.wakeAt, p.sleepFrom, p.stallRead = 0, 0, false
	return nil
}
