package ckpt

import (
	"bytes"
	"os"
	"testing"
)

// TestEnvelopeBytesGolden pins the EBCK envelope byte for byte: a
// checkpoint written through the public Put must reproduce the
// committed file exactly (TestEnvelopeRoundTrip checks only that the
// codec inverts itself), so a layout change cannot ship without a
// SchemaVersion bump.
func TestEnvelopeBytesGolden(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := PrefixKey(testSpec(12_000))
	if err := st.Put(key, 42, []byte("the quick brown snapshot")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(st.Path(key, 42))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/envelope.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope bytes changed without a schema bump:\n got %x\nwant %x", got, want)
	}
}
