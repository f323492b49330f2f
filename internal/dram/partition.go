// Package dram models one GPU memory partition: the L2 cache slice, its
// MSHRs, and the GDDR5 memory controller behind it (Table I).
//
// The controller implements FR-FCFS scheduling (first-ready row hits ahead
// of older row misses) over a per-partition request queue, with per-bank
// row-buffer state and the Hynix GDDR5 timing constraints tCL, tRP, tRAS,
// tRCD, tRRD, tCCD, and tWR. The data bus serializes line transfers at BL
// memory cycles per line, which sets the attainable bandwidth ceiling the
// paper's BW metric is normalized against.
//
// All partition logic runs on the memory clock; the simulator converts to
// and from core cycles at the boundary.
package dram

import (
	"fmt"
	"math"

	"ebm/internal/cache"
	"ebm/internal/config"
	"ebm/internal/mem"
	"ebm/internal/stats"
)

// bank holds per-DRAM-bank row-buffer and timing state, in memory cycles.
type bank struct {
	openRow   int64  // -1 when closed
	actAt     uint64 // time of the last activate (tRAS reference)
	colReady  uint64 // earliest next column command on this bank
	lastColAt uint64 // last column command (tWR reference)
	preDone   uint64 // precharge completion time when closing
}

type eventKind uint8

const (
	evL2Hit eventKind = iota
	evDRAMRead
)

type event struct {
	at   uint64
	kind eventKind
	req  *mem.Request
}

// eventHeap is a binary min-heap on event.at. It is hand-rolled rather
// than backed by container/heap because the interface{}-based API boxes
// every pushed and popped event, which dominated the cycle path's heap
// allocations; the sift order is identical to container/heap's, so the
// pop order among equal timestamps — and therefore the simulation — is
// unchanged.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		parent := (j - 1) / 2
		if s[j].at >= s[parent].at {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].at < s[j].at {
			j = j2
		}
		if s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	s[n] = event{} // drop the *mem.Request reference
	*h = s[:n]
	return e
}

// Stats aggregates the partition-side per-application telemetry the
// paper's designated-partition sampling reads (Fig. 8 items 4–6).
type Stats struct {
	BWBytes    stats.Counter // data-bus bytes transferred (reads+writes)
	RowHits    stats.Counter
	RowMisses  stats.Counter // activates (closed or conflict)
	DRAMReads  stats.Counter
	DRAMWrites stats.Counter
	LatencySum stats.Counter // read latency in mem cycles, summed
}

// qent is one FR-FCFS queue entry with the DRAM coordinates of its line,
// decoded once when it is queued.
type qent struct {
	req  *mem.Request
	row  int64
	bank int
}

// Partition is one memory controller plus its L2 slice.
type Partition struct {
	ID  int
	cfg *config.GPU

	L2 *cache.Cache

	inq      []*mem.Request // bounded input queue fed by the interconnect
	inqCap   int
	mshr     *mem.MSHRTable[*mem.Request] // line -> read waiters in DRAM
	pool     *mem.Pool                    // request free list (nil: plain allocation)
	dramQ    []qent                       // FR-FCFS queue
	dramQCap int

	banks     []bank
	busFreeAt uint64
	lastActAt uint64
	lastColAt uint64

	// openHits[b] counts the dramQ entries that hit bank b's open row, and
	// openHitsAll sums them, so a FR-FCFS pick with no possible row hit
	// skips the scan. A bank is recounted only when its open row changes.
	openHits    []int
	openHitsAll int

	events eventHeap

	resp []*mem.Request // completed responses awaiting the return network

	l2LatMem uint64 // L2 hit latency converted to memory cycles

	// Per-app telemetry.
	Apps []Stats

	// Refreshes counts all-bank refresh operations (zero unless the
	// timing's TREFI is configured).
	Refreshes   stats.Counter
	nextRefresh uint64

	// MSHRStalls counts memory cycles the input-queue head was blocked by
	// a full L2 MSHR file or DRAM queue (structural back-pressure toward
	// the interconnect); BusBusy accumulates the memory cycles the data
	// bus spent bursting, so (windowed BusBusy)/(window mem cycles) is the
	// bus utilization. Both are observability counters: they feed the obs
	// exporters and never influence scheduling.
	MSHRStalls stats.Counter
	BusBusy    stats.Counter

	// Sleep state, derived and never serialized. A partition whose Tick
	// can do nothing but retry a stalled input-queue head is not ticked
	// before wakeAt; each slept cycle from sleepFrom on is credited as
	// the retry would have counted it: a read head's L2 miss and one
	// MSHRStalls (stallRead), nothing for a write head or an empty queue.
	wakeAt    uint64
	sleepFrom uint64
	stallRead bool

	// reference turns off sleep and the row-hit count shortcut (SetReference).
	reference bool

	// derived address mapping and scheduling constants
	interleave uint64
	nparts     uint64
	rowBytes   uint64
	nbanks     uint64
	horizon    uint64 // how far scheduling may run ahead of the data bus
}

// NewPartition builds partition id of the machine described by cfg with
// per-app statistics for numApps applications.
func NewPartition(id int, cfg *config.GPU, numApps int) *Partition {
	l2LatMem := uint64(float64(cfg.L2HitLatency) * cfg.MemCyclesPerCoreCycle())
	if l2LatMem == 0 {
		l2LatMem = 1
	}
	l2MSHRs := cfg.L2MSHRs
	if l2MSHRs <= 0 {
		l2MSHRs = 64
	}
	p := &Partition{
		ID:         id,
		cfg:        cfg,
		L2:         cache.New(cfg.L2, numApps),
		inqCap:     32,
		mshr:       mem.NewMSHRTable[*mem.Request](l2MSHRs),
		dramQCap:   64,
		banks:      make([]bank, cfg.BanksPerMC),
		openHits:   make([]int, cfg.BanksPerMC),
		l2LatMem:   l2LatMem,
		Apps:       make([]Stats, numApps),
		interleave: uint64(cfg.AddrInterleave),
		nparts:     uint64(cfg.NumMemPartitions),
		rowBytes:   uint64(cfg.RowBytes),
		nbanks:     uint64(cfg.BanksPerMC),
	}
	// Scheduling may run ahead of the bus by enough to overlap bank
	// preparation (precharge+activate+CAS) of the next requests with the
	// current data bursts, as a pipelined controller does, while still
	// bounding how stale the FR-FCFS decision can be.
	t := &cfg.Timing
	p.horizon = uint64(t.TRP + t.TRCD + t.TCL + 2*t.BL)
	for i := range p.banks {
		p.banks[i].openRow = -1
	}
	return p
}

// SetPool attaches a request free list shared with the rest of the
// machine. A nil pool (the default) allocates from and releases to the
// garbage collector.
func (p *Partition) SetPool(pool *mem.Pool) { p.pool = pool }

// SetReference turns off the partition's fast paths, sleep and the
// row-hit count shortcut, so it ticks every cycle and scans its whole
// FR-FCFS queue. It serves the engine's reference mode in tests.
func (p *Partition) SetReference() { p.reference = true }

// CanAccept reports whether the input queue has room for another request;
// the simulator uses it for interconnect back-pressure.
func (p *Partition) CanAccept() bool { return len(p.inq) < p.inqCap }

// WakeAt returns the first memory cycle the partition must be ticked at.
// Before it the partition sleeps: a Tick would only retry a stalled
// input-queue head, and Settle credits those retries instead.
func (p *Partition) WakeAt() uint64 { return p.wakeAt }

// Enqueue places a request arriving from the interconnect into the input
// queue at memory cycle now. The caller must have checked CanAccept. A
// request entering an empty input queue wakes a sleeping partition;
// behind a stalled head it changes nothing a Tick would read.
func (p *Partition) Enqueue(req *mem.Request, now uint64) {
	if len(p.inq) >= p.inqCap {
		panic("dram: Enqueue past capacity; caller must check CanAccept")
	}
	if len(p.inq) == 0 {
		p.wakeAt = 0
	}
	req.MemBorn = now
	p.inq = append(p.inq, req)
}

// Settle credits the cycles the partition slept through before memory
// cycle upTo, so its counters read exactly as if every cycle had been
// ticked. It does not wake the partition. The simulator settles at
// window boundaries, at the warmup snapshot and when a run returns.
func (p *Partition) Settle(upTo uint64) {
	if upTo <= p.sleepFrom {
		return
	}
	if p.stallRead {
		n := upTo - p.sleepFrom
		head := p.inq[0]
		p.L2.RecordMisses(p.localAddr(head.LineAddr), head.App, n)
		p.MSHRStalls.Add(n)
	}
	p.sleepFrom = upTo
}

// PopResponse removes one completed read reply, or returns nil.
func (p *Partition) PopResponse() *mem.Request {
	if len(p.resp) == 0 {
		return nil
	}
	r := p.resp[0]
	copy(p.resp, p.resp[1:])
	p.resp = p.resp[:len(p.resp)-1]
	return r
}

// PendingResponses returns the number of replies awaiting the return path.
func (p *Partition) PendingResponses() int { return len(p.resp) }

// localAddr converts a global line address to the partition-local byte
// offset implied by the chunked interleave: global chunk i lives at local
// chunk i/nparts. The L2 slice and the DRAM mapping both index with the
// local address — indexing with the global address would leave 1/nparts
// of the slice's sets usable, since the interleave bits are constant
// within a partition.
func (p *Partition) localAddr(addr uint64) uint64 {
	chunk := addr / p.interleave
	return (chunk/p.nparts)*p.interleave + addr%p.interleave
}

// globalAddr inverts localAddr for this partition.
func (p *Partition) globalAddr(local uint64) uint64 {
	chunk := local / p.interleave
	return (chunk*p.nparts+uint64(p.ID))*p.interleave + local%p.interleave
}

// bankAndRow maps a global line address to (bank, row) using the
// partition-local address: consecutive rows rotate across banks so
// streaming accesses exercise bank-level parallelism.
func (p *Partition) bankAndRow(addr uint64) (int, int64) {
	local := p.localAddr(addr)
	rowIdx := local / p.rowBytes
	return int(rowIdx % p.nbanks), int64(rowIdx / p.nbanks)
}

// Tick advances the partition by one memory cycle, first crediting any
// cycles it slept through, and then works out how long it may sleep.
func (p *Partition) Tick(now uint64) {
	p.Settle(now)
	p.maybeRefresh(now)
	p.drainEvents(now)
	stalled := p.acceptOne(now)
	p.scheduleDRAM(now)
	p.sleep(now, stalled && p.headBlocked())
}

// headBlocked reports whether the input-queue head, having missed the L2
// and found no MSHR entry to merge into, cannot enter the DRAM queue:
// the queue is full, or for a read, the MSHR file is.
func (p *Partition) headBlocked() bool {
	return len(p.dramQ) >= p.dramQCap || p.inq[0].Kind != mem.WriteReq && p.mshr.Full()
}

// sleep sets wakeAt after the Tick at now. The following cycles are
// no-ops but for the retry of a stalled head when the input-queue head is
// absent or still stalled after this cycle's DRAM issue, and none of the
// partition's clocks fires: the next completion event, the data bus
// falling within the scheduling horizon (with requests queued), and the
// next refresh. A stalled head stays stalled until one of those fires,
// because only events change the L2 and the MSHRs, and only scheduling
// shrinks the DRAM queue. An Enqueue into an empty input queue is the
// fourth wake (Enqueue).
func (p *Partition) sleep(now uint64, stalled bool) {
	p.wakeAt, p.sleepFrom, p.stallRead = 0, now+1, false
	if p.reference || len(p.inq) > 0 && !stalled {
		return
	}
	wake := uint64(math.MaxUint64)
	if len(p.events) > 0 {
		wake = p.events[0].at
	}
	if len(p.dramQ) > 0 {
		if p.busFreeAt <= now+1+p.horizon {
			return
		}
		wake = min(wake, p.busFreeAt-p.horizon)
	}
	if p.cfg.Timing.TREFI > 0 {
		wake = min(wake, p.nextRefresh)
	}
	if wake <= now+1 {
		return
	}
	p.wakeAt = wake
	p.stallRead = stalled && p.inq[0].Kind != mem.WriteReq
}

// maybeRefresh models all-bank refresh: every TREFI cycles the banks are
// precharged and unavailable for TRFC cycles.
func (p *Partition) maybeRefresh(now uint64) {
	t := &p.cfg.Timing
	if t.TREFI <= 0 || now < p.nextRefresh {
		return
	}
	p.nextRefresh = now + uint64(t.TREFI)
	p.Refreshes.Inc()
	done := now + uint64(t.TRFC)
	for i := range p.banks {
		b := &p.banks[i]
		b.openRow = -1 // refresh precharges all banks
		if b.preDone < done {
			b.preDone = done
		}
		if b.colReady < done {
			b.colReady = done
		}
		p.openHits[i] = 0
	}
	p.openHitsAll = 0
	if p.busFreeAt < done {
		p.busFreeAt = done
	}
}

// drainEvents retires every event due at or before now.
func (p *Partition) drainEvents(now uint64) {
	for len(p.events) > 0 && p.events[0].at <= now {
		e := p.events.pop()
		switch e.kind {
		case evL2Hit:
			e.req.Kind = mem.ReadReply
			p.resp = append(p.resp, e.req)
		case evDRAMRead:
			line := e.req.LineAddr
			app := e.req.App
			ev := p.L2.Fill(p.localAddr(line), app)
			if ev.Valid && ev.Dirty {
				// Write back the dirty victim; charged to its owner. The
				// queue may transiently exceed its cap here — write-backs
				// are internally generated and cannot be back-pressured.
				wb := p.pool.Get()
				wb.Kind, wb.LineAddr, wb.App = mem.WriteReq, p.globalAddr(ev.LineAddr), ev.App
				p.pushQ(wb)
			}
			p.Apps[app].LatencySum.Add(now - e.req.MemBorn)
			waiters := p.mshr.Remove(line)
			for _, w := range waiters {
				w.Kind = mem.ReadReply
				p.resp = append(p.resp, w)
			}
			p.mshr.Release(waiters)
		}
	}
}

// acceptOne dequeues at most one input request per memory cycle and probes
// the L2. This matches the single tag-array port of the slice. It reports
// whether the head stalled on a full MSHR file or DRAM queue.
func (p *Partition) acceptOne(now uint64) (stalled bool) {
	if len(p.inq) == 0 {
		return false
	}
	req := p.inq[0]
	app := req.App

	if req.Kind == mem.WriteReq {
		// Store traffic is write-through from the L1s but write-back at
		// the L2: a hit marks the line dirty and is absorbed; a miss does
		// not allocate and goes straight to DRAM.
		if p.L2.WriteProbe(p.localAddr(req.LineAddr)) {
			p.popInq()
			p.pool.Put(req) // absorbed by the L2: the message is dead
			return false
		}
		if len(p.dramQ) >= p.dramQCap {
			return true // back-pressure: retry next cycle
		}
		p.pushQ(req)
		p.popInq()
		return false
	}

	// Read path: record the L2 access in the app's windowed stats.
	if p.L2.Access(p.localAddr(req.LineAddr), app) {
		p.events.push(event{at: now + p.l2LatMem, kind: evL2Hit, req: req})
		p.popInq()
		return false
	}
	// L2 miss: merge into an existing MSHR entry if one is in flight.
	if p.mshr.Append(req.LineAddr, req) {
		p.popInq()
		return false
	}
	if p.headBlocked() {
		// Structural stall; the head request retries next cycle and
		// back-pressure propagates to the interconnect.
		p.MSHRStalls.Inc()
		return true
	}
	p.mshr.Add(req.LineAddr, req)
	p.pushQ(req)
	p.popInq()
	return false
}

// pushQ appends req to the FR-FCFS queue with its bank and row.
func (p *Partition) pushQ(req *mem.Request) {
	b, row := p.bankAndRow(req.LineAddr)
	p.dramQ = append(p.dramQ, qent{req: req, row: row, bank: b})
	if p.banks[b].openRow == row {
		p.openHits[b]++
		p.openHitsAll++
	}
}

// recount recounts the queued hits on bank bi after its open row changed.
func (p *Partition) recount(bi int) {
	n := p.queuedHits(bi)
	p.openHitsAll += n - p.openHits[bi]
	p.openHits[bi] = n
}

// queuedHits counts the queued entries that hit bank bi's open row.
func (p *Partition) queuedHits(bi int) int {
	n, row := 0, p.banks[bi].openRow
	for i := range p.dramQ {
		if e := &p.dramQ[i]; e.bank == bi && e.row == row {
			n++
		}
	}
	return n
}

func (p *Partition) popInq() {
	copy(p.inq, p.inq[1:])
	p.inq[len(p.inq)-1] = nil
	p.inq = p.inq[:len(p.inq)-1]
}

// scheduleDRAM issues at most one request to the DRAM per memory cycle
// using FR-FCFS: the oldest request hitting an open row wins; if no queued
// request hits an open row, the oldest request wins.
func (p *Partition) scheduleDRAM(now uint64) {
	if len(p.dramQ) == 0 || p.busFreeAt > now+p.horizon {
		return
	}
	t := &p.cfg.Timing

	pick := -1
	if p.openHitsAll > 0 || p.reference {
		for i := range p.dramQ {
			if e := &p.dramQ[i]; p.banks[e.bank].openRow == e.row {
				pick = i
				break
			}
		}
	}
	rowHit := pick >= 0
	if pick < 0 {
		pick = 0
	}
	e := p.dramQ[pick]
	copy(p.dramQ[pick:], p.dramQ[pick+1:])
	p.dramQ[len(p.dramQ)-1] = qent{}
	p.dramQ = p.dramQ[:len(p.dramQ)-1]

	req, bi, row := e.req, e.bank, e.row
	b := &p.banks[bi]
	app := req.App

	var colAt uint64
	switch {
	case rowHit:
		colAt = max(now, b.colReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowHits.Inc()
		p.openHits[bi]--
		p.openHitsAll--
	case b.openRow < 0:
		actAt := max(now, b.preDone, p.lastActAt+uint64(t.TRRD))
		b.actAt = actAt
		b.openRow = row
		b.colReady = actAt + uint64(t.TRCD)
		p.lastActAt = actAt
		colAt = max(b.colReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowMisses.Inc()
	default: // row conflict: precharge, then activate
		preAt := max(now, b.actAt+uint64(t.TRAS), b.lastColAt+uint64(t.TWR))
		actAt := max(preAt+uint64(t.TRP), p.lastActAt+uint64(t.TRRD))
		b.preDone = preAt + uint64(t.TRP)
		b.actAt = actAt
		b.openRow = row
		b.colReady = actAt + uint64(t.TRCD)
		p.lastActAt = actAt
		colAt = max(b.colReady, p.lastColAt+uint64(t.TCCD))
		p.Apps[app].RowMisses.Inc()
	}
	if !rowHit {
		p.recount(bi) // the bank opened row
	}
	// Serialize the data burst on the shared bus.
	dataStart := max(colAt+uint64(t.TCL), p.busFreeAt)
	if over := dataStart - (colAt + uint64(t.TCL)); over > 0 {
		colAt += over // the column command waits for the bus slot
	}
	dataEnd := dataStart + uint64(t.BL)
	p.busFreeAt = dataEnd
	p.BusBusy.Add(uint64(t.BL))
	b.lastColAt = colAt
	b.colReady = colAt + uint64(t.TCCD)
	p.lastColAt = colAt

	p.Apps[app].BWBytes.Add(uint64(p.cfg.L2.LineBytes))
	if req.Kind == mem.WriteReq {
		p.Apps[app].DRAMWrites.Inc()
		p.pool.Put(req) // fire and forget: the burst retires the message
		return
	}
	p.Apps[app].DRAMReads.Inc()
	p.events.push(event{at: dataEnd, kind: evDRAMRead, req: req})
}

// QueueDepth returns the current FR-FCFS queue occupancy (telemetry).
func (p *Partition) QueueDepth() int { return len(p.dramQ) }

// InputDepth returns the input-queue occupancy (telemetry).
func (p *Partition) InputDepth() int { return len(p.inq) }

// OutstandingMisses returns the number of distinct lines in flight to DRAM.
func (p *Partition) OutstandingMisses() int { return p.mshr.Len() }

// NewWindow rolls every per-app counter (including the L2's) into a new
// sampling window.
func (p *Partition) NewWindow() {
	p.L2.NewWindow()
	p.MSHRStalls.NewWindow()
	p.BusBusy.NewWindow()
	for i := range p.Apps {
		a := &p.Apps[i]
		a.BWBytes.NewWindow()
		a.RowHits.NewWindow()
		a.RowMisses.NewWindow()
		a.DRAMReads.NewWindow()
		a.DRAMWrites.NewWindow()
		a.LatencySum.NewWindow()
	}
}

// LiveRequests counts the distinct requests the partition holds: the
// input and response queues, the L2 MSHR waiters, queued write-backs and
// stores, and pending L2 hits. A DRAM read in the queue or in flight is
// also its line's first MSHR waiter and is counted there once. It serves
// request-conservation checks.
func (p *Partition) LiveRequests() int {
	n := len(p.inq) + len(p.resp)
	_, waiters := p.mshr.Entries()
	for _, ws := range waiters {
		n += len(ws)
	}
	for _, e := range p.dramQ {
		if e.req.Kind == mem.WriteReq {
			n++
		}
	}
	for _, e := range p.events {
		if e.kind == evL2Hit {
			n++
		}
	}
	return n
}

// CheckInvariants verifies the partition's derived state at memory cycle
// now, changing nothing: the row-hit counts match a recount of the queue,
// and if the partition sleeps through now, its sleep still holds — no
// event, bus-horizon opening or refresh falls before its wake, and the
// input-queue head is absent or still stalled, as credited.
func (p *Partition) CheckInvariants(now uint64) error {
	all := 0
	for bi := range p.banks {
		n := p.queuedHits(bi)
		if n != p.openHits[bi] {
			return fmt.Errorf("dram: partition %d bank %d: %d queued row hits counted, %d queued", p.ID, bi, p.openHits[bi], n)
		}
		all += n
	}
	if all != p.openHitsAll {
		return fmt.Errorf("dram: partition %d: %d row hits in total, banks sum to %d", p.ID, p.openHitsAll, all)
	}
	if now >= p.wakeAt {
		return nil
	}
	switch {
	case len(p.events) > 0 && p.events[0].at < p.wakeAt:
		return fmt.Errorf("dram: partition %d sleeps to %d past an event at %d", p.ID, p.wakeAt, p.events[0].at)
	case len(p.dramQ) > 0 && p.busFreeAt < p.wakeAt+p.horizon:
		return fmt.Errorf("dram: partition %d sleeps to %d, the bus gate opens at %d", p.ID, p.wakeAt, p.busFreeAt-p.horizon)
	case p.cfg.Timing.TREFI > 0 && p.nextRefresh < p.wakeAt:
		return fmt.Errorf("dram: partition %d sleeps to %d past a refresh at %d", p.ID, p.wakeAt, p.nextRefresh)
	case len(p.inq) == 0:
		if p.stallRead {
			return fmt.Errorf("dram: partition %d credits a stalled read with an empty input queue", p.ID)
		}
		return nil
	}
	head := p.inq[0]
	read := head.Kind != mem.WriteReq
	stalled := p.headBlocked() && !p.L2.Contains(p.localAddr(head.LineAddr)) && !(read && p.mshr.Contains(head.LineAddr))
	if !stalled || read != p.stallRead {
		return fmt.Errorf("dram: partition %d sleeps to %d, its head (read %v, credited %v) is not stalled", p.ID, p.wakeAt, read, p.stallRead)
	}
	return nil
}

// String summarizes the partition state for diagnostics.
func (p *Partition) String() string {
	return fmt.Sprintf("partition %d: inq=%d dramQ=%d mshr=%d resp=%d",
		p.ID, len(p.inq), len(p.dramQ), p.mshr.Len(), len(p.resp))
}
