package search

import (
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/sim"
)

func smallCfg() config.GPU {
	c := config.Default()
	c.NumCores = 4
	c.NumMemPartitions = 4
	return c
}

func apps(names ...string) []kernel.Params {
	out := make([]kernel.Params, len(names))
	for i, n := range names {
		p, ok := kernel.ByName(n)
		if !ok {
			panic("unknown " + n)
		}
		out[i] = p
	}
	return out
}

func buildSmallGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := BuildGrid(nil, apps("BLK", "BFS"), GridOptions{
		Config:       smallCfg(),
		Levels:       []int{1, 4, 24},
		TotalCycles:  15_000,
		WarmupCycles: 3_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridShapeAndIndexing(t *testing.T) {
	g := buildSmallGrid(t)
	combos := g.Combos()
	if len(combos) != 9 {
		t.Fatalf("%d combos, want 9", len(combos))
	}
	if len(g.Results) != 9 {
		t.Fatalf("%d results", len(g.Results))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		r, err := g.At(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Apps[0].Insts == 0 {
			t.Fatalf("combo %v produced an empty result", c)
		}
		key := string(rune(c[0])) + "/" + string(rune(c[1]))
		if seen[key] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[key] = true
	}
	// Flat index round trip.
	for i, c := range combos {
		li := []int{indexOf(g.Levels, c[0]), indexOf(g.Levels, c[1])}
		if g.Index(li) != i {
			t.Fatalf("index mismatch for %v", c)
		}
	}
	if _, err := g.At([]int{3, 4}); err == nil {
		t.Fatal("At accepted a non-level TLP")
	}
}

func TestGridResultsMatchCombosByTLP(t *testing.T) {
	g := buildSmallGrid(t)
	// The stored result for (1,24) must actually be the run at TLP 1/24:
	// verify via the reported final TLPs.
	r, err := g.At([]int{1, 24})
	if err != nil {
		t.Fatal(err)
	}
	if r.Apps[0].FinalTLP != 1 || r.Apps[1].FinalTLP != 24 {
		t.Fatalf("grid cell (1,24) holds run with TLPs (%d,%d)",
			r.Apps[0].FinalTLP, r.Apps[1].FinalTLP)
	}
}

func TestBestFindsArgmax(t *testing.T) {
	g := buildSmallGrid(t)
	eval := EBEval(metrics.ObjWS, nil)
	combo, val := g.Best(eval)
	for _, c := range g.Combos() {
		r, _ := g.At(c)
		if eval(r) > val+1e-12 {
			t.Fatalf("Best missed combo %v (found %v)", c, combo)
		}
	}
	r, _ := g.At(combo)
	if eval(r) != val {
		t.Fatal("Best value inconsistent with its combo")
	}
}

func TestEvaluators(t *testing.T) {
	g := buildSmallGrid(t)
	r := g.Results[0]
	alone := []float64{r.Apps[0].IPC * 2, r.Apps[1].IPC * 2}
	if v := SDEval(metrics.ObjWS, alone)(r); v <= 0 || v > 2 {
		t.Fatalf("SD WS eval = %v", v)
	}
	if v := SDEval(metrics.ObjWS, []float64{1})(r); v != 0 {
		t.Fatal("mismatched alone vector should score 0")
	}
	if v := ITEval()(r); v != r.Apps[0].IPC+r.Apps[1].IPC {
		t.Fatal("IT eval")
	}
	if v := EBEval(metrics.ObjFI, nil)(r); v < 0 || v > 1 {
		t.Fatalf("EBFI eval = %v", v)
	}
}

func TestPBSOfflineReturnsValidCombo(t *testing.T) {
	g := buildSmallGrid(t)
	combo, err := g.PBSOffline(metrics.ObjWS, nil, []int{1, 4, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(combo) != 2 {
		t.Fatalf("combo shape %v", combo)
	}
	r, err := g.At(combo)
	if err != nil {
		t.Fatalf("PBSOffline produced a non-grid combo %v", combo)
	}
	eval := EBEval(metrics.ObjWS, nil)
	val := eval(r)
	if val <= 0 {
		t.Fatalf("value %v", val)
	}
	// The pattern search may be suboptimal but must not be catastrophic:
	// within the (tiny) grid it should reach half the exhaustive best.
	_, best := g.Best(eval)
	if val < 0.5*best {
		t.Fatalf("PBSOffline %v far below exhaustive %v", val, best)
	}
}

func TestPBSOfflineFIReturnsValidCombo(t *testing.T) {
	g := buildSmallGrid(t)
	scale := []float64{1, 1}
	combo, err := g.PBSOffline(metrics.ObjFI, scale, []int{1, 4, 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.At(combo); err != nil {
		t.Fatalf("bad combo %v", combo)
	}
}

func TestBuildGridErrors(t *testing.T) {
	if _, err := BuildGrid(nil, nil, GridOptions{Config: smallCfg()}); err == nil {
		t.Fatal("empty workload accepted")
	}
	bad := smallCfg()
	bad.NumCores = 3 // not divisible between 2 apps
	if _, err := BuildGrid(nil, apps("BLK", "TRD"), GridOptions{
		Config: bad, TotalCycles: 1000,
	}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestThreeAppGrid(t *testing.T) {
	// 3 apps with 2 levels: 8 combos on a tiny machine (3 cores, 1 each).
	cfg := smallCfg()
	cfg.NumCores = 3
	g, err := BuildGrid(nil, apps("BLK", "TRD", "BFS"), GridOptions{
		Config:       cfg,
		Levels:       []int{2, 24},
		TotalCycles:  8_000,
		WarmupCycles: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Combos()) != 8 {
		t.Fatalf("%d combos, want 8", len(g.Combos()))
	}
	combo, err := g.PBSOffline(metrics.ObjWS, nil, []int{2, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(combo) != 3 {
		t.Fatalf("3-app PBS combo %v", combo)
	}
}

func TestGridEvalOnSyntheticResults(t *testing.T) {
	// Hand-built grid to pin PBSOffline's search path deterministically.
	g := &Grid{
		Apps:   apps("BLK", "TRD"),
		Levels: []int{1, 4, 24},
	}
	// EB surfaces: app0 collapses at 24 (own cliff), app1 indifferent.
	mk := func(eb0, eb1 float64) sim.Result {
		return sim.Result{Apps: []sim.AppResult{{EB: eb0}, {EB: eb1}}}
	}
	// Index layout: idx = i0 + 3*i1 (levels of app0 vary fastest).
	g.Results = []sim.Result{
		// t1=1:        t0=1          t0=4          t0=24
		mk(0.5, 0.9), mk(1.0, 0.8), mk(0.2, 0.6),
		// t1=4:
		mk(0.5, 0.8), mk(1.0, 0.7), mk(0.2, 0.5),
		// t1=24:
		mk(0.4, 0.6), mk(0.9, 0.5), mk(0.1, 0.3),
	}
	eval := EBEval(metrics.ObjWS, nil)
	combo, val := g.Best(eval)
	if combo[0] != 4 || combo[1] != 1 {
		t.Fatalf("Best = %v", combo)
	}
	if val != 1.8 {
		t.Fatalf("Best val = %v", val)
	}
	pc, err := g.PBSOffline(metrics.ObjWS, nil, []int{1, 4, 24})
	if err != nil {
		t.Fatal(err)
	}
	// Sweeps at co-24: app0 curve (t0 in 1,4,24 @ t1=24): 1.0, 1.4, 0.4
	// -> drop 1.0, argmax at 4, own-EB cap 4 (collapse at 24).
	// app1 curve (t1 @ t0=24): 0.8, 0.7, 0.4 -> drop 0.4.
	// Critical = app0 fixed at 4; tune app1 descending from its cap.
	if pc[0] != 4 {
		t.Fatalf("critical app pinned at %d, want 4 (combo %v)", pc[0], pc)
	}
	r, _ := g.At(pc)
	if pv := eval(r); pv < 1.5 {
		t.Fatalf("pattern search landed poorly: %v -> %v", pc, pv)
	}
}
