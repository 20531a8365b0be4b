package rtmodel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xpdl/internal/units"
)

// goldenModel is a hand-built model covering every field of the node
// record: kinds, names, ids, types, raw values with and without units,
// normalized values, the unknown flag, properties with several keys,
// nested children and the root's parent of -1. Repeated strings
// exercise the .xrt string table.
func goldenModel() *Model {
	return &Model{Nodes: []Node{
		{
			Kind: "system", ID: "srv", Parent: -1, Children: []int32{1},
			Props: []Prop{{
				Name: "ExternalPowerMeter",
				KVs:  [][2]string{{"command", "meter.sh"}, {"type", "script"}},
			}},
		},
		{
			Kind: "node", Name: "n0", Parent: 0, Children: []int32{2, 5},
			Attrs: []Attr{{Name: "static_power", Raw: "30", Unit: "W", Value: 30, Dim: units.Power, Flags: FlagHasValue}},
		},
		{
			Kind: "cpu", ID: "cpu0", Type: "Xeon", Parent: 1, Children: []int32{3, 4},
			Attrs: []Attr{
				{Name: "frequency", Raw: "2.5", Unit: "GHz", Value: 2.5e9, Dim: units.Frequency, Flags: FlagHasValue},
				{Name: "pending", Raw: "?", Flags: FlagUnknown},
				{Name: "role", Raw: "master"},
			},
		},
		{Kind: "core", Name: "c0", Parent: 2},
		{Kind: "core", Name: "c1", Parent: 2},
		{
			Kind: "memory", ID: "mem0", Type: "DDR3", Parent: 1,
			Attrs: []Attr{{Name: "size", Raw: "4", Unit: "GB", Value: 4e9, Dim: units.Size, Flags: FlagHasValue}},
			Props: []Prop{{Name: "ecc", KVs: [][2]string{{"mode", "secded"}}}},
		},
	}}
}

// TestGoldenEncoding pins both encodings of goldenModel byte for byte:
// the .xrt file format (version 1) and the canonical stream that
// snapshot fingerprints hash. Any change to either output is a format
// change, not a refactoring.
func TestGoldenEncoding(t *testing.T) {
	m := goldenModel()
	var xrt, canon bytes.Buffer
	if err := m.Save(&xrt); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCanonical(&canon); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		got  []byte
	}{
		{"golden.xrt", xrt.Bytes()},
		{"golden.canon", canon.Bytes()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s differs:\n got %x\nwant %x", c.file, c.got, want)
		}
	}
	back, err := Load(bytes.NewReader(xrt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, back) {
		t.Fatal("golden model changed across save/load")
	}
}
