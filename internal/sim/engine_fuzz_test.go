package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/stats"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// scriptedManager replays a fuzzed script of TLP and bypass decisions,
// one script byte per application per window, so runs exercise decision
// application, TLP changes under parked cores and bypass toggles.
type scriptedManager struct {
	script []byte
	window int
}

func (m *scriptedManager) Name() string { return "scripted" }

func (m *scriptedManager) Initial(numApps int) tlp.Decision { return m.decide(numApps) }

func (m *scriptedManager) OnSample(s tlp.Sample) tlp.Decision {
	m.window++
	return m.decide(len(s.Apps))
}

func (m *scriptedManager) decide(numApps int) tlp.Decision {
	d := tlp.NewDecision(numApps, config.MaxTLP)
	for app := range d.TLP {
		b := m.script[(m.window*numApps+app)%len(m.script)]
		d.TLP[app] = config.TLPLevels[int(b)%len(config.TLPLevels)]
		d.BypassL1[app] = b&0x80 != 0
	}
	return d
}

func (m *scriptedManager) StateBytes() ([]byte, error) { return []byte{byte(m.window)}, nil }

func (m *scriptedManager) SetStateBytes(b []byte) error {
	if len(b) != 1 {
		return fmt.Errorf("scripted manager: state of %d bytes", len(b))
	}
	m.window = int(b[0])
	return nil
}

// fuzzOptions draws a small machine and a run from seed: 2–4 cores and
// 1–2 partitions, sometimes a small L2 MSHR file or refresh, a pair from
// the 25 evaluated workloads with seeds mixed from seed and sometimes
// short kernels with a second phase, and the window schedule. It returns
// the options without a manager and the window a fork restores from.
func fuzzOptions(seed uint64) (Options, uint64) {
	rng := stats.NewRNG(seed)
	cfg := config.Default()
	cfg.NumCores = 2 + rng.Intn(3)
	cfg.NumMemPartitions = 1 << rng.Intn(2)
	cfg.L2MSHRs = []int{64, 16, 4}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		cfg.Timing.TREFI = 200 + rng.Intn(800)
		cfg.Timing.TRFC = 20 + rng.Intn(60)
	}
	pairs := workload.Evaluated()
	apps := append([]kernel.Params(nil), pairs[rng.Intn(len(pairs))].Apps...)
	for i := range apps {
		a := &apps[i]
		a.Seed ^= rng.Uint64()
		if rng.Intn(2) == 0 {
			a.KernelInsts = uint64(500 + rng.Intn(4000))
			phase := *a
			phase.Name, phase.KernelInsts = "", 0
			phase.Rm = 0.05 + 0.4*rng.Float64()
			phase.CoalesceLines = 1 + rng.Intn(4)
			phase.WriteFrac = 0.3 * rng.Float64()
			a.Phases = []kernel.Params{phase}
		}
	}
	var perApp []int
	if cfg.NumCores == 3 {
		perApp = []int{1, 2}
		if rng.Intn(2) == 0 {
			perApp = []int{2, 1}
		}
	}
	window := uint64(300 + 100*rng.Intn(10))
	windows := uint64(4 + rng.Intn(6))
	opts := Options{
		Config:             cfg,
		Apps:               apps,
		CoresPerApp:        perApp,
		TotalCycles:        window*windows + uint64(rng.Intn(int(window))),
		WarmupCycles:       window * uint64(rng.Intn(3)),
		WindowCycles:       window,
		DesignatedSampling: rng.Intn(2) == 0,
		DecisionDelay:      uint64(1 + rng.Intn(64)),
	}
	return opts, 1 + uint64(rng.Intn(int(windows-1)))
}

// engineRun is what one run leaves behind for comparison.
type engineRun struct {
	res     Result
	samples []tlp.Sample
	state   *EngineState
}

// runEngine runs opts to the end on a fresh simulator (a reference one
// when ref is set), optionally restoring from snap first and capturing a
// snapshot at window forkAt. It checks the partition invariants at every
// window boundary of a fast run.
func runEngine(t *testing.T, opts Options, script []byte, ref bool, snap []byte, forkAt uint64) (engineRun, []byte) {
	t.Helper()
	var run engineRun
	var s *Simulator
	var taken []byte
	opts.Manager = &scriptedManager{script: script}
	opts.OnWindow = func(sm tlp.Sample) {
		sm.Apps = append([]tlp.AppSample(nil), sm.Apps...)
		run.samples = append(run.samples, sm)
		for _, p := range s.partitions {
			if err := p.CheckInvariants(s.memCycle); err != nil {
				t.Errorf("window %d: %v", len(run.samples), err)
			}
		}
	}
	if snap == nil {
		opts.CkptSink = func(w uint64, s *Simulator) error {
			if w == forkAt {
				b, err := s.SnapshotBytes()
				taken = b
				return err
			}
			return nil
		}
	}
	var err error
	if ref {
		s, err = newReference(opts)
	} else {
		s, err = New(opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := s.RestoreBytes(snap); err != nil {
			t.Fatal(err)
		}
	}
	run.res = s.Run()
	if run.state, err = s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Fast-forward bookkeeping is the only state the reference lacks.
	run.state.CoreQuiet, run.state.QuietFrom, run.state.QuietMemWait = nil, nil, nil
	for i := range run.state.Cores {
		c := &run.state.Cores[i]
		c.Stats.FastForward = stats.CounterState{}
		sortMSHR(c.MSHRLines, c.MSHRWaiters)
	}
	for i := range run.state.Partitions {
		p := &run.state.Partitions[i]
		sortMSHR(p.MSHRLines, p.MSHRWaiters)
	}
	return run, taken
}

// sortMSHR orders captured MSHR entries by line. A restored table lays
// its entries out in other slots than the table it was captured from,
// which changes the order State lists them in but no table operation's
// result (mem.MSHRTable.Entries).
func sortMSHR[W any](lines []uint64, waiters [][]W) {
	sort.Sort(mshrEntries[W]{lines, waiters})
}

type mshrEntries[W any] struct {
	lines   []uint64
	waiters [][]W
}

func (e mshrEntries[W]) Len() int           { return len(e.lines) }
func (e mshrEntries[W]) Less(i, j int) bool { return e.lines[i] < e.lines[j] }
func (e mshrEntries[W]) Swap(i, j int) {
	e.lines[i], e.lines[j] = e.lines[j], e.lines[i]
	e.waiters[i], e.waiters[j] = e.waiters[j], e.waiters[i]
}

// FuzzEngine checks the engine's skip paths against the reference engine
// that turns them all off. Each input draws a small machine, a seeded
// workload pair, a window schedule and a scripted TLP/bypass manager. The
// fast run, the reference run and a fork restored from the fast run's
// snapshot at a drawn window must agree bit for bit: Result, every
// window's Sample, and the final engine state — every core counter but
// FastForward, every partition counter, queue, bank and L2 line.
func FuzzEngine(f *testing.F) {
	f.Add(uint64(1), []byte{0x07, 0x03})
	f.Add(uint64(2), []byte{0x80, 0x01, 0x85, 0x02})
	f.Add(uint64(3), []byte{0x00})
	f.Add(uint64(4), []byte{0x07, 0x00, 0x04, 0x87, 0x01})
	f.Add(uint64(5), []byte{0x06, 0x06})
	f.Add(uint64(6), []byte{0x02, 0x07, 0x05, 0x00, 0x83, 0x06})
	f.Add(uint64(7), []byte{0x87})
	f.Add(uint64(8), []byte{0x03, 0x04, 0x05})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) == 0 {
			return
		}
		opts, forkAt := fuzzOptions(seed)
		fast, snap := runEngine(t, opts, script, false, nil, forkAt)
		ref, _ := runEngine(t, opts, script, true, nil, forkAt)
		if snap == nil {
			t.Fatalf("no snapshot taken at window %d", forkAt)
		}
		fork, _ := runEngine(t, opts, script, false, snap, 0)

		if !reflect.DeepEqual(fast.res, ref.res) {
			t.Fatalf("result diverged from the reference\nfast:      %+v\nreference: %+v", fast.res, ref.res)
		}
		if !reflect.DeepEqual(fork.res, ref.res) {
			t.Fatalf("fork from window %d diverged from the reference\nfork:      %+v\nreference: %+v", forkAt, fork.res, ref.res)
		}
		if len(fast.samples) != len(ref.samples) || len(fork.samples)+int(forkAt) != len(ref.samples) {
			t.Fatalf("window counts: fast %d, fork %d from %d, reference %d", len(fast.samples), len(fork.samples), forkAt, len(ref.samples))
		}
		for w := range ref.samples {
			if !reflect.DeepEqual(fast.samples[w], ref.samples[w]) {
				t.Fatalf("window %d sample diverged\nfast:      %+v\nreference: %+v", w+1, fast.samples[w], ref.samples[w])
			}
			if w >= int(forkAt) && !reflect.DeepEqual(fork.samples[w-int(forkAt)], ref.samples[w]) {
				t.Fatalf("window %d sample of the fork from window %d diverged\nfork:      %+v\nreference: %+v", w+1, forkAt, fork.samples[w-int(forkAt)], ref.samples[w])
			}
		}
		if !reflect.DeepEqual(fast.state, ref.state) {
			t.Fatal("final engine state diverged from the reference")
		}
		if !reflect.DeepEqual(fork.state, ref.state) {
			t.Fatalf("final engine state of the fork from window %d diverged from the reference", forkAt)
		}
	})
}
