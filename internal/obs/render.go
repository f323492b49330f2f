package obs

import (
	"fmt"
	"strings"
)

// Point is one windowed observation of a run time series.
type Point struct {
	Cycle uint64
	Value float64
}

// RenderASCII renders a time series as a compact one-line-per-bucket text
// chart (value bars), used by the figure regeneration binaries.
func RenderASCII(pts []Point, buckets int, maxV float64) string {
	if len(pts) == 0 || buckets <= 0 {
		return ""
	}
	if maxV <= 0 {
		for _, p := range pts {
			maxV = max(maxV, p.Value)
		}
		if maxV == 0 {
			maxV = 1
		}
	}
	per := (len(pts) + buckets - 1) / buckets
	var b strings.Builder
	for i := 0; i < len(pts); i += per {
		end := min(i+per, len(pts))
		sum := 0.0
		for _, p := range pts[i:end] {
			sum += p.Value
		}
		avg := sum / float64(end-i)
		bars := min(max(int(avg/maxV*40), 0), 40)
		fmt.Fprintf(&b, "%10d %7.2f %s\n", pts[i].Cycle, avg, strings.Repeat("#", bars))
	}
	return b.String()
}
