package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFig11Golden pins Fig. 11 on the miniature machine byte for byte:
// the TLP bars, the share of search windows and the search/restart
// counters. testdata/fig11.golden was written by the earlier renderer,
// which polled PBS.Searching from an OnWindow hook, so a pass means the
// journal's phase events reproduce those shaded periods window for
// window.
func TestFig11Golden(t *testing.T) {
	var got bytes.Buffer
	if err := Fig11(testEnv(t), &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig11.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Fig. 11 output changed:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
