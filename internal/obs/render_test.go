package obs

import (
	"strings"
	"testing"
)

func TestRenderASCII(t *testing.T) {
	var s []Point
	for i := 0; i < 100; i++ {
		s = append(s, Point{Cycle: uint64(i * 1000), Value: float64(i % 25)})
	}
	out := RenderASCII(s, 10, 24)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d buckets, want 10", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "#") && !strings.HasSuffix(strings.TrimSpace(l), "0.00") {
			t.Fatalf("bucket line without bars: %q", l)
		}
	}
	if RenderASCII(nil, 10, 1) != "" {
		t.Fatal("empty series should render empty")
	}
	// Auto max.
	if RenderASCII(s, 5, 0) == "" {
		t.Fatal("auto-max render empty")
	}
}

func TestRenderASCIIClampsBars(t *testing.T) {
	s := []Point{{Cycle: 0, Value: 1e9}} // way above max
	out := RenderASCII(s, 1, 10)
	if strings.Count(out, "#") > 40 {
		t.Fatal("bar length not clamped")
	}
}
