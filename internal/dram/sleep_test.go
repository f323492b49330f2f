package dram

import "testing"

// TestStalledHeadAccounting pins how a read head stalled on a full L2
// MSHR file is counted: every retry re-probes the L2, so a head stalled
// for n cycles records n+1 L2 accesses and misses (n retries and the
// probe that accepts it) and n MSHRStalls (EXPERIMENTS.md fidelity delta
// 5). A partition that sleeps through the stall, ticked only at WakeAt
// as the simulator does, must credit exactly the same counts as one
// ticked every cycle.
func TestStalledHeadAccounting(t *testing.T) {
	for _, sleep := range []bool{false, true} {
		c := cfg()
		c.L2MSHRs = 1
		p := NewPartition(0, c, 2)
		if !sleep {
			p.SetReference()
		}
		p.Enqueue(read(0, 0), 0)
		var acceptAt, slept uint64
		const end = 2000
		for now := uint64(0); now < end; now++ {
			if now == 1 {
				p.Enqueue(read(1<<20, 1), now) // stalls behind app 0's miss
			}
			if now < p.WakeAt() {
				slept++
				continue
			}
			p.Tick(now)
			if now >= 1 && acceptAt == 0 && p.InputDepth() == 0 {
				acceptAt = now
			}
		}
		p.Settle(end)
		if acceptAt < 2 {
			t.Fatalf("sleep %v: the second read was accepted at cycle %d without stalling", sleep, acceptAt)
		}
		if sleep == (slept == 0) {
			t.Fatalf("sleep %v: slept %d cycles", sleep, slept)
		}
		n := acceptAt - 1 // stalled on cycles 1..acceptAt-1
		l2 := &p.L2.Stats[1]
		if l2.Accesses.Total() != n+1 || l2.Misses.Total() != n+1 || p.MSHRStalls.Total() != n {
			t.Fatalf("sleep %v: head stalled %d cycles counted %d L2 accesses, %d misses, %d MSHR stalls; want %d, %d, %d",
				sleep, n, l2.Accesses.Total(), l2.Misses.Total(), p.MSHRStalls.Total(), n+1, n+1, n)
		}
		t.Logf("sleep %v: stalled %d cycles (%d slept)", sleep, n, slept)
	}
}
