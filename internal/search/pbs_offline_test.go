package search

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/sim"
)

// synthCase is one seeded synthetic EB surface for the offline PBS golden.
type synthCase struct {
	apps   int
	levels []int
	obj    metrics.Objective
	scale  string // "none", "scaled" (positive factors) or "zero" (one factor 0)
	seed   int64
}

// synthCases spans the grid shapes, objectives and scale modes the offline
// search is driven with: 2-app grids over the full level set, {1,4,24} and
// {2,24}; 3-app grids over {2,8,24} and eight levels.
func synthCases() []synthCase {
	shapes := []struct {
		apps   int
		levels []int
	}{
		{2, []int{1, 2, 4, 6, 8, 12, 16, 24}},
		{2, []int{1, 4, 24}},
		{2, []int{2, 24}},
		{3, []int{2, 8, 24}},
		{3, []int{1, 2, 4, 6, 8, 12, 16, 24}},
	}
	const perConfig = 14
	var out []synthCase
	for _, sh := range shapes {
		for _, obj := range []metrics.Objective{metrics.ObjWS, metrics.ObjFI, metrics.ObjHS} {
			for _, mode := range []string{"none", "scaled", "zero"} {
				for k := 0; k < perConfig; k++ {
					seed := int64(len(out))
					out = append(out, synthCase{sh.apps, sh.levels, obj, mode, seed})
				}
			}
		}
	}
	return out
}

// surface draws the per-cell EBs of c in flat grid order. The seed picks
// the surface family: uniform noise, a structured inflection/cliff model
// with co-runner interference, the same model quantized to force ties, or
// a coarse {0, 0.5, 1} lattice full of ties and zeros.
func (c synthCase) surface() [][]float64 {
	rng := rand.New(rand.NewSource(c.seed))
	nl := len(c.levels)
	cells := 1
	for i := 0; i < c.apps; i++ {
		cells *= nl
	}
	peak := make([]int, c.apps)
	cliff := make([]float64, c.apps)
	height := make([]float64, c.apps)
	inter := make([][]float64, c.apps)
	for i := range peak {
		peak[i] = rng.Intn(nl)
		cliff[i] = 0.1 + 0.9*rng.Float64()
		height[i] = 0.2 + 2*rng.Float64()
		inter[i] = make([]float64, c.apps)
		for j := range inter[i] {
			inter[i][j] = 0.8 * rng.Float64()
		}
	}
	kind := c.seed % 4
	out := make([][]float64, cells)
	for idx := range out {
		li := make([]int, c.apps)
		rem := idx
		for i := range li {
			li[i] = rem % nl
			rem /= nl
		}
		ebs := make([]float64, c.apps)
		for i := range ebs {
			switch kind {
			case 0:
				ebs[i] = 2 * rng.Float64()
			case 3:
				ebs[i] = 0.5 * float64(rng.Intn(3))
			default:
				own := float64(li[i]+1) / float64(peak[i]+1)
				if li[i] > peak[i] {
					own = cliff[i]
				}
				v := height[i] * own
				for j := range li {
					if j != i {
						v *= 1 - inter[i][j]*float64(li[j])/float64(nl-1)
					}
				}
				v *= 0.9 + 0.2*rng.Float64()
				if kind == 2 {
					v = math.Round(8*v) / 8
				}
				ebs[i] = v
			}
		}
		out[idx] = ebs
	}
	return out
}

// scaleFactors returns c's alone-EB scaling vector (nil for "none").
func (c synthCase) scaleFactors() []float64 {
	if c.scale == "none" {
		return nil
	}
	rng := rand.New(rand.NewSource(c.seed + 7919))
	s := make([]float64, c.apps)
	for i := range s {
		s[i] = 0.2 + 1.8*rng.Float64()
	}
	if c.scale == "zero" {
		s[int(c.seed)%c.apps] = 0
	}
	return s
}

var errSynthFill = errors.New("synthetic fill failure")

// lazySynthGrid wraps per-cell EBs in a lazy grid whose fill counts the
// distinct cells read; failAt > 0 makes the failAt-th new cell fail.
func lazySynthGrid(apps int, levels []int, ebs [][]float64, failAt int) (*Grid, *int) {
	g := &Grid{Apps: make([]kernel.Params, apps), Levels: levels}
	g.Results = make([]sim.Result, len(ebs))
	g.ready = make([]bool, len(ebs))
	fills := new(int)
	g.fill = func(tlps []int) (sim.Result, error) {
		*fills++
		if *fills == failAt {
			return sim.Result{}, fmt.Errorf("%w at %v", errSynthFill, tlps)
		}
		li := make([]int, len(tlps))
		for i, t := range tlps {
			li[i] = indexOf(levels, t)
		}
		r := sim.Result{Apps: make([]sim.AppResult, apps)}
		for i, eb := range ebs[g.Index(li)] {
			r.Apps[i].EB = eb
		}
		return r, nil
	}
	return g, fills
}

// goldenLine runs offline PBS on case i and formats its pick and the
// number of distinct cells it read.
func goldenLine(i int, c synthCase) (string, error) {
	g, fills := lazySynthGrid(c.apps, c.levels, c.surface(), 0)
	pick, err := g.PBSOffline(c.obj, c.scaleFactors(), nil)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%03d apps=%d levels=%v obj=%s scale=%s seed=%d pick=%v cells=%d",
		i, c.apps, c.levels, c.obj, c.scale, c.seed, pick, *fills), nil
}

// TestPBSOfflineGolden pins offline PBS's picks and probe footprints on
// ~600 seeded synthetic surfaces. testdata/pbs_offline.golden was written
// by the earlier stand-alone offline implementation (a hand-kept copy of
// the online algorithm), so a pass means driving the online state machine
// over grid cells reproduces it pick for pick and cell for cell.
func TestPBSOfflineGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "pbs_offline.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := synthCases()
	if len(want) != len(cases) {
		t.Fatalf("golden has %d lines, want %d", len(want), len(cases))
	}
	for i, c := range cases {
		got, err := goldenLine(i, c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// TestPBSOfflineCellError: a cell that cannot be read aborts the search
// with that cell's error and no pick, instead of scoring the cell as zero.
func TestPBSOfflineCellError(t *testing.T) {
	for _, obj := range []metrics.Objective{metrics.ObjWS, metrics.ObjFI, metrics.ObjHS} {
		c := synthCase{2, config.TLPLevels, obj, "scaled", 1}
		g, fills := lazySynthGrid(c.apps, c.levels, c.surface(), 5)
		pick, err := g.PBSOffline(c.obj, c.scaleFactors(), nil)
		if !errors.Is(err, errSynthFill) {
			t.Fatalf("%s: err = %v, want the failing cell's error", obj, err)
		}
		if pick != nil {
			t.Fatalf("%s: pick %v returned alongside the error", obj, pick)
		}
		if *fills != 5 {
			t.Fatalf("%s: %d cells read, want the search to stop at the 5th", obj, *fills)
		}
	}
}

// fuzzSurface turns fuzz bytes into a 2-app x 8-level grid (EBs in
// [0, 4)), an objective, and an optional scale vector.
func fuzzSurface(data []byte) (*Grid, metrics.Objective, []float64) {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	levels := config.TLPLevels
	g := &Grid{Apps: make([]kernel.Params, 2), Levels: levels}
	g.Results = make([]sim.Result, len(levels)*len(levels))
	for idx := range g.Results {
		g.Results[idx] = sim.Result{Apps: []sim.AppResult{
			{EB: float64(at(3+2*idx)) / 64},
			{EB: float64(at(4+2*idx)) / 64},
		}}
	}
	obj := metrics.Objective(at(0) % 3)
	var scale []float64
	if at(1)%2 == 1 {
		scale = []float64{float64(at(2)) / 64, float64(at(2)>>4) / 4}
	}
	return g, obj, scale
}

// FuzzPBSOffline drives offline PBS over fuzzed 2-app surfaces: the pick
// is always a grid combo, the search stays within its sample budget (an
// init probe, 2x6 sweep probes and at most 6 tuning probes; at most 18
// distinct cells since the init cell is also a sweep cell), and a rerun
// repeats the same probe sequence and pick.
func FuzzPBSOffline(f *testing.F) {
	flat := make([]byte, 131)
	for i := range flat {
		flat[i] = 64
	}
	cliff := make([]byte, 131)
	crossing := make([]byte, 131)
	for idx := 0; idx < 64; idx++ {
		l0, l1 := idx%8, idx/8
		own0, own1 := byte(20*l0), byte(20*l1)
		if l0 > 4 {
			own0 = 10
		}
		if l1 > 5 {
			own1 = 5
		}
		cliff[3+2*idx], cliff[4+2*idx] = own0, own1
		crossing[3+2*idx], crossing[4+2*idx] = byte(16*l0+8), byte(128-16*l0)
	}
	for _, seed := range [][]byte{nil, make([]byte, 131), flat, cliff, crossing} {
		for obj := byte(0); obj < 3; obj++ {
			for _, scaled := range []byte{0, 1} {
				in := append([]byte(nil), seed...)
				if len(in) == 0 {
					in = make([]byte, 3)
				}
				in[0], in[1], in[2] = obj, scaled, 0x93
				f.Add(in)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, obj, scale := fuzzSurface(data)
		run := func() ([]int, [][]int) {
			var probes [][]int
			pick, err := g.pbsOffline(obj, scale, nil, func(tlps []int) (sim.Result, error) {
				probes = append(probes, append([]int(nil), tlps...))
				return g.At(tlps)
			})
			if err != nil {
				t.Fatalf("PBSOffline: %v", err)
			}
			return pick, probes
		}
		pick, probes := run()
		if _, err := g.At(pick); err != nil || len(pick) != 2 {
			t.Fatalf("pick %v is not a grid combo", pick)
		}
		distinct := map[[2]int]bool{}
		for _, c := range probes {
			distinct[[2]int{c[0], c[1]}] = true
		}
		if len(probes) > 19 || len(distinct) > 18 {
			t.Fatalf("%d probes over %d distinct cells, budget 19/18", len(probes), len(distinct))
		}
		pick2, probes2 := run()
		if fmt.Sprint(pick2, probes2) != fmt.Sprint(pick, probes) {
			t.Fatalf("rerun diverged: %v %v vs %v %v", pick2, probes2, pick, probes)
		}
	})
}
