package simcache

import (
	"bytes"
	"os"
	"testing"
)

// TestEntryBytesGolden pins the on-disk entry layout byte for byte: a
// result written through the public Put must reproduce the committed
// file exactly. TestKeyGolden pins the key; this pins what is stored
// under it, so a layout change cannot ship without a SchemaVersion bump.
func TestEntryBytesGolden(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key(testSpec())
	if err := c.Put(key, awkwardResult()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/entry.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("entry bytes changed without a schema bump:\n got %s\nwant %s", got, want)
	}
}
