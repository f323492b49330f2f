package sim

import (
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/spec"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// phasedBFS is BLK_BFS with BFS rotating, every 4k instructions, into a
// more bandwidth-hungry kernel phase (the shape of paperfigs' phase
// extra), so warp streams are rebound under parked schedulers.
func phasedBFS() []kernel.Params {
	apps := workload.MustMake("BLK", "BFS").Apps
	bfs := &apps[1]
	bfs.KernelInsts = 4 << 10
	phase := *bfs
	phase.Name, phase.KernelInsts = "", 0
	phase.Rm, phase.CoalesceLines, phase.SharedFrac = 0.15, 2, 0.05
	bfs.Phases = []kernel.Params{phase}
	return apps
}

// TestWindowBoundaryInvariants runs a memory-saturated pair, a
// compute-bound pair and a phase-rotating pair under online PBS-WS and
// checks the machine at every sampling window boundary. Every core: the
// L1 MSHR file and the out-queue are within capacity, the TLP limit is a
// configured level, every parked scheduler records the need a full
// re-classification gives, and no fast-forwarded core has a scheduler
// whose stall test would pass. Every partition: its row-hit counts match
// its queue, and a sleeping partition has no event, bus-gate opening or
// refresh before its wake and a head that is still stalled. Requests are
// conserved: every request taken from the pool and not yet recycled sits
// in exactly one place — a core out-queue, either network, or a
// partition (input queue, L2 MSHR waiters, queued write, pending L2 hit
// or response queue).
func TestWindowBoundaryInvariants(t *testing.T) {
	for _, run := range []struct {
		name string
		apps []kernel.Params
	}{
		{"BLK_BFS", workload.MustMake("BLK", "BFS").Apps},
		{"NW_LUD", workload.MustMake("NW", "LUD").Apps},
		{"BLK_BFSphased", phasedBFS()},
	} {
		t.Run(run.name, func(t *testing.T) {
			cfg := config.Default()
			var s *Simulator
			var windows, parked, quietParked, asleep int
			opts := Options{
				Config:             cfg,
				Apps:               run.apps,
				Manager:            spec.MustManager(spec.PBS(metrics.ObjWS), 2),
				TotalCycles:        100_000,
				WarmupCycles:       10_000,
				WindowCycles:       2_500,
				DesignatedSampling: true,
				OnWindow: func(sm tlp.Sample) {
					windows++
					for ci, c := range s.cores {
						if n := c.OutstandingMisses(); n > cfg.L1MSHRs {
							t.Errorf("window %d core %d: %d L1 MSHRs in use, capacity %d", windows, ci, n, cfg.L1MSHRs)
						}
						if !c.CanInject(0) {
							t.Errorf("window %d core %d: out-queue holds %d requests, over its capacity", windows, ci, c.PendingRequests())
						}
						if config.LevelIndex(c.TLP()) < 0 {
							t.Errorf("window %d core %d: TLP %d is not a configured level", windows, ci, c.TLP())
						}
						n, err := c.Parked()
						if err != nil {
							t.Errorf("window %d: %v", windows, err)
						}
						parked += n
						if s.coreQuiet[ci] {
							if !c.Quiescent() {
								t.Errorf("window %d core %d: fast-forwarded with a scheduler that could issue", windows, ci)
							}
							quietParked += n
						}
					}
					held := s.toMem.InFlight() + s.toCore.InFlight()
					for _, c := range s.cores {
						held += c.PendingRequests()
					}
					for _, p := range s.partitions {
						if err := p.CheckInvariants(s.memCycle); err != nil {
							t.Errorf("window %d: %v", windows, err)
						}
						if s.memCycle < p.WakeAt() {
							asleep++
						}
						held += p.LiveRequests()
					}
					if live := s.pool.Gets() - s.pool.Recycles(); live != uint64(held) {
						t.Errorf("window %d: %d requests live in the pool, %d held by the machine", windows, live, held)
					}
				},
			}
			var err error
			if s, err = New(opts); err != nil {
				t.Fatal(err)
			}
			s.Run()
			t.Logf("%d windows: %d parked schedulers seen at boundaries, %d of them on fast-forwarded cores; %d sleeping partitions", windows, parked, quietParked, asleep)
			if run.name != "NW_LUD" && quietParked == 0 {
				t.Error("the memory-saturated pair never fast-forwarded a parked core; the invariants went unexercised")
			}
			if asleep == 0 {
				t.Error("no partition was asleep at a window boundary; the sleep invariants went unexercised")
			}
		})
	}
}
