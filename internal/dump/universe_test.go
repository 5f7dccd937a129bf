package dump

import (
	"bytes"
	"strings"
	"testing"

	"wiclean/internal/taxonomy"
)

func TestUniverseRoundTrip(t *testing.T) {
	reg := soccerRegistry(t)
	var buf bytes.Buffer
	if err := WriteUniverse(&buf, reg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUniverse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != reg.Len() {
		t.Fatalf("entity count %d != %d", got.Len(), reg.Len())
	}
	// IDs must be stable across the round trip.
	for _, id := range reg.All() {
		if got.Name(id) != reg.Name(id) {
			t.Errorf("id %d: %q != %q", id, got.Name(id), reg.Name(id))
		}
		if got.TypeOf(id) != reg.TypeOf(id) {
			t.Errorf("id %d type: %q != %q", id, got.TypeOf(id), reg.TypeOf(id))
		}
	}
	// Hierarchy preserved.
	if !got.Taxonomy().IsA("FootballPlayer", "Person") {
		t.Error("taxonomy chain lost")
	}
	if err := got.Taxonomy().Validate(); err != nil {
		t.Error(err)
	}
}

func TestReadUniverseErrors(t *testing.T) {
	cases := []string{
		`{"kind":"alien","name":"x"}`,
		`{"kind":"entity","name":"X","type":"Nope"}`,
		`{"kind":"type","name":"T","parent":"Missing"}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := ReadUniverse(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
	// Empty input is a valid empty universe.
	got, err := ReadUniverse(strings.NewReader(""))
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty universe: %v, %v", got, err)
	}
}

func TestUniverseEmptyParentMeansRoot(t *testing.T) {
	in := `{"kind":"type","name":"A"}` + "\n" + `{"kind":"entity","name":"x","type":"A"}`
	got, err := ReadUniverse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Taxonomy().IsA("A", taxonomy.Root) {
		t.Error("A should hang under the root")
	}
}

// FuzzReadUniverse feeds raw bytes to ReadUniverse, the reader of every
// universe.jsonl: no panic, and a universe it accepts is a fixed point of
// WriteUniverse → ReadUniverse → WriteUniverse.
func FuzzReadUniverse(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteUniverse(&buf, soccerRegistry(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"kind":"type","name":"A"}{"kind":"entity","name":"a","type":"A"}`))
	f.Add([]byte(`{"kind":"entity","name":"x","type":"Thing"}` + "\n" + `{"kind":"type","name":"Thing"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("inputs over 64 KiB")
		}
		reg, err := ReadUniverse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteUniverse(&first, reg); err != nil {
			t.Fatal(err)
		}
		again, err := ReadUniverse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rereading a written universe: %v\n%s", err, first.Bytes())
		}
		if err := WriteUniverse(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write is not a fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
