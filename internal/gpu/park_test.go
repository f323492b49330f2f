package gpu

import (
	"reflect"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/mem"
	"ebm/internal/stats"
)

// parkShape returns the kernel behind a FuzzCorePark run and the alternate
// phase its streams can be rebound to. The shapes stress each stall kind:
// coalesced loads fill the MSHR file, divergent loads over a small working
// set repeat lines within and across instructions, stores fill the
// out-queue, the mixed shape adds L1 hits and ALU latency, and the shared
// shape makes one scheduler's loads change the other's need.
func parkShape(shape uint8, seed uint64) (base, alt kernel.Params) {
	base = kernel.Params{
		Name: "PARK", Rm: 0.8, ALUDelay: 1, CoalesceLines: 1,
		StepBytes: 128, PrivateWS: 1 << 18, Seed: seed,
	}
	switch shape % 5 {
	case 1: // divergent loads
		base.CoalesceLines, base.PrivateWS, base.PrivRandom = 8, 1<<13, 0.7
	case 2: // store-heavy
		base.CoalesceLines, base.WriteFrac = 2, 0.7
	case 3: // mixed: shared lines, L1 hits, dependent ALU chains
		base.Rm, base.ALUDelay, base.CoalesceLines = 0.4, 3, 4
		base.SharedWS, base.SharedFrac, base.WriteFrac = 1<<12, 0.5, 0.2
	case 4: // both schedulers' warps load the same small shared region
		base.Rm, base.CoalesceLines = 0.9, 3
		base.SharedWS, base.SharedFrac = 1<<14, 0.9
	}
	alt = base
	alt.Name = "PARK#1"
	alt.Rm, alt.CoalesceLines, alt.WriteFrac = 0.5, 1+int(seed%6), 0.4
	return base, alt
}

// parkCore builds one core over fresh streams of p.
func parkCore(cfg *config.GPU, p *kernel.Params) *Core {
	streams := make([]*kernel.WarpStream, cfg.MaxWarpsPerCore)
	for i := range streams {
		streams[i] = kernel.NewWarpStream(p, 0, i, cfg.L1.LineBytes)
	}
	return NewCore(0, 0, cfg, streams, 1)
}

// FuzzCorePark checks stall parking and the quiescence it enables against
// the full issue path. Two identical cores run the same fuzzed schedule of
// fills, out-queue pops (some only peeked at), TLP and bypass
// changes, and kernel phase rebinds. The reference core has its parks
// dropped before every Tick, so it re-classifies every stalled instruction
// from scratch. The parking core is driven the way the simulator drives
// it: once Quiescent, it is credited through CreditIdle instead of ticked
// until a fill, a pop, a decision or a rebind wakes it. After every cycle
// both cores must hold the same counters, scheduler state and out-queue,
// and every 64 cycles the same State(), FastForward aside.
func FuzzCorePark(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0x00, 0x01, 0x08, 0x02, 0x00, 0x00, 0x09, 0x03})
	f.Add(uint64(2), uint8(1), []byte{0x08, 0x08, 0x04, 0x05, 0x11, 0x00, 0x0c, 0xe0})
	f.Add(uint64(3), uint8(2), []byte{0x00, 0x00, 0x00, 0x01, 0x05, 0x00, 0x02, 0xf0})
	f.Add(uint64(4), uint8(3), []byte{0x0b, 0x1a, 0x06, 0x00, 0xe8, 0x09, 0x13, 0x00, 0xd0})
	f.Add(uint64(5), uint8(0), []byte{0x00})
	f.Add(uint64(6), uint8(1), []byte{0x03, 0x08, 0xc8, 0x00, 0x00, 0x1c, 0x0f})
	f.Add(uint64(7), uint8(2), []byte{0x01, 0x09, 0xe4, 0x02, 0x08, 0xd8, 0x00, 0x00, 0x00})
	f.Add(uint64(8), uint8(3), []byte{0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x2a})
	f.Add(uint64(9), uint8(4), []byte{0x03, 0x00, 0x0b, 0x00, 0x03, 0x00})
	f.Add(uint64(10), uint8(4), []byte{0x01, 0x0a, 0x00, 0x13, 0x00, 0x00, 0x0b})
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, sched []byte) {
		if len(sched) == 0 {
			return
		}
		cfg := config.Default()
		base, alt := parkShape(shape, seed)
		a, b := parkCore(&cfg, &base), parkCore(&cfg, &base) // a parks, b is the reference
		rng := stats.NewRNG(seed)
		var inflight []uint64 // lines popped as reads and not yet filled
		quiet, quietMemWait := false, false
		phase := false

		const cycles = 3000
		for now := uint64(0); now < cycles; now++ {
			// The schedule repeats; from cycle 512 on, seeded random bits
			// vary each repetition.
			op := sched[int(now)%len(sched)] ^ byte(rng.Uint64())&byte(now>>9)

			// Decisions and phase rebinds land before the cores tick, as
			// applyDecision and the window boundary do in the simulator.
			switch {
			case op&0xf0 == 0xe0:
				tlp := config.TLPLevels[rng.Intn(len(config.TLPLevels))]
				a.SetTLP(tlp)
				b.SetTLP(tlp)
				quiet = false
			case op&0xf0 == 0xd0:
				on := !a.BypassL1()
				a.SetBypassL1(on)
				b.SetBypassL1(on)
				quiet = false
			case op&0xf0 == 0xc0:
				p := &base
				if phase = !phase; phase {
					p = &alt
				}
				for i := range a.warps {
					a.warps[i].stream.SetPhase(p)
					b.warps[i].stream.SetPhase(p)
				}
				a.Unpark()
				quiet = false
			}

			if quiet {
				a.CreditIdle(1, quietMemWait)
			} else {
				a.Tick(now)
				if a.Quiescent() {
					quiet, quietMemWait = true, a.ActiveMemWait()
				}
			}
			b.dropParks()
			b.Tick(now)

			// The network pops up to three requests; bit 2 only peeks at
			// the last one, as the simulator does when the network is full.
			for n := int(op & 3); n > 0 && a.PendingRequests() > 0; n-- {
				if n == 1 && op&4 != 0 {
					if ra, rb := a.PeekRequest(), b.PeekRequest(); rb == nil || *ra != *rb {
						t.Fatalf("cycle %d: peeked %+v, reference peeked %+v", now, ra, rb)
					}
					continue
				}
				ra, rb := a.PopRequest(), b.PopRequest()
				if rb == nil || *ra != *rb {
					t.Fatalf("cycle %d: popped %+v, reference popped %+v", now, ra, rb)
				}
				quiet = false
				if ra.Kind == mem.ReadReq {
					inflight = append(inflight, ra.LineAddr)
				}
			}

			// Bit 3 delivers an in-flight line; bit 4 fills a line no warp
			// waits on, which only changes the L1.
			if op&8 != 0 && len(inflight) > 0 {
				i := rng.Intn(len(inflight))
				line := inflight[i]
				inflight[i] = inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
				a.HandleFill(line)
				b.HandleFill(line)
				quiet = false
			}
			if op&0x10 != 0 {
				line := kernel.AppBase(0) + rng.Uint64()%(1<<20)*uint64(cfg.L1.LineBytes)
				a.HandleFill(line)
				b.HandleFill(line)
				quiet = false
			}
			if now%512 == 511 {
				a.NewWindow()
				b.NewWindow()
			}

			if _, err := a.Parked(); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
			if !sameIssueState(a, b) {
				t.Fatalf("cycle %d (op %#x, quiet %v): parking core diverged from the reference\nparking:   %+v\nreference: %+v",
					now, op, quiet, a.Stats, b.Stats)
			}
			if now%64 == 63 || now == cycles-1 {
				sa, sb := a.State(), b.State()
				sa.Stats.FastForward = sb.Stats.FastForward
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("cycle %d: parking core state diverged from the reference", now)
				}
			}
		}
		for i := range a.warps {
			if sa, sb := a.warps[i].stream.State(), b.warps[i].stream.State(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("warp %d stream diverged:\nparking:   %+v\nreference: %+v", i, sa, sb)
			}
		}
	})
}

// sameIssueState compares, without allocating, everything of two cores
// that Tick reads or counts but the L1 and MSHR contents, which the full
// State comparison covers every 64 cycles. FastForward is left out: only
// the parking core fast-forwards.
func sameIssueState(a, b *Core) bool {
	sa, sb := a.Stats, b.Stats
	sa.FastForward = sb.FastForward
	if sa != sb || a.tlp != b.tlp || a.bypassL1 != b.bypassL1 || a.wheelBusy != b.wheelBusy ||
		a.mshr.Len() != b.mshr.Len() || len(a.outq) != len(b.outq) {
		return false
	}
	for i := range a.scheds {
		x, y := &a.scheds[i], &b.scheds[i]
		if x.readyMask != y.readyMask || x.memWait != y.memWait || x.lastIssued != y.lastIssued {
			return false
		}
	}
	for i := range a.warps {
		if a.warps[i].pendingFills != b.warps[i].pendingFills {
			return false
		}
	}
	for i := range a.outq {
		if *a.outq[i] != *b.outq[i] {
			return false
		}
	}
	return true
}

// dropParks forgets every scheduler's park, so the next Tick takes the
// full issue path for each of them.
func (c *Core) dropParks() {
	for i := range c.scheds {
		c.scheds[i].park = park{}
	}
}

// TestParkedCoreGoesQuiet drives a memory-bound core with no fills until
// its MSHR file is full: both schedulers park, the core is quiescent,
// CreditIdle counts one abort per parked scheduler per cycle, and a fill
// ends the park.
func TestParkedCoreGoesQuiet(t *testing.T) {
	cfg := machine()
	p := memHeavy()
	p.CoalesceLines = 4 // a dozen warps fill the MSHR file
	c := newCore(t, cfg, p)
	for now := uint64(0); now < 2000 && !c.Quiescent(); now++ {
		c.Tick(now)
		for c.PendingRequests() > 0 {
			c.PopRequest()
		}
	}
	if !c.Quiescent() {
		t.Fatal("an MSHR-bound core never became quiescent")
	}
	if got := c.OutstandingMisses(); got != cfg.L1MSHRs {
		t.Fatalf("quiescent with %d of %d MSHRs in use", got, cfg.L1MSHRs)
	}
	parked, err := c.Parked()
	if err != nil {
		t.Fatal(err)
	}
	if parked != cfg.SchedulersPerCore {
		t.Fatalf("%d schedulers parked, want %d", parked, cfg.SchedulersPerCore)
	}
	before := c.Stats.StallMSHR.Total()
	c.CreditIdle(10, c.ActiveMemWait())
	if got := c.Stats.StallMSHR.Total() - before; got != uint64(10*parked) {
		t.Fatalf("CreditIdle(10) added %d stalls, want %d", got, 10*parked)
	}
	lines, _ := c.mshr.Entries()
	c.HandleFill(lines[0])
	if parked, _ := c.Parked(); parked != 0 || c.Quiescent() {
		t.Fatalf("a fill left %d schedulers parked (quiescent %v)", parked, c.Quiescent())
	}
}

// TestAnotherSchedulersLoadDropsPark pins the one invalidation the fuzzed
// kernels rarely reach: a load committed by one scheduler puts a line
// another scheduler's parked load also needs in flight, which shrinks
// that load's need. Scheduler 0 parks on a three-line load with two
// out-queue slots free; scheduler 1 then issues one of those lines. After
// one pop, scheduler 0's remaining two lines fit, and only a dropped park
// sees it.
func TestAnotherSchedulersLoadDropsPark(t *testing.T) {
	cfg := machine()
	c := newCore(t, cfg, memHeavy())
	c.SetTLP(1)
	load := func(w int, lines ...uint64) {
		c.warps[w].stream.SetState(kernel.StreamState{CurValid: true, CurIsMem: true, CurLines: lines})
	}
	const a, b, d = 0x10000, 0x10080, 0x10100
	load(0, a, b, d)
	load(cfg.MaxWarpsPerCore/cfg.SchedulersPerCore, a)
	for c.CanInject(3) {
		c.outq = append(c.outq, &mem.Request{Kind: mem.WriteReq})
	}
	c.Tick(0)
	if n, err := c.Parked(); n != 0 || err != nil {
		t.Fatalf("after scheduler 1's load: %d parks (%v), want 0", n, err)
	}
	c.PopRequest()
	c.Tick(1)
	if got := c.Stats.InstRetired.Total(); got != 2 {
		t.Fatalf("%d instructions issued, want 2: scheduler 0's load fits after the pop", got)
	}
}
