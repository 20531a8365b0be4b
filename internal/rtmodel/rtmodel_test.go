package rtmodel

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xpdl/internal/model"
	"xpdl/internal/units"
)

func sample() *model.Component {
	sys := model.New("system")
	sys.ID = "srv"
	sys.Properties = append(sys.Properties, model.Property{
		Name:  "ExternalPowerMeter",
		Attrs: map[string]string{"type": "script", "command": "myscript.sh"},
	})
	node := model.New("node")
	node.ID = "n0"
	node.SetQuantity("static_power", units.MustParse("30", "W"))
	cpu := model.New("cpu")
	cpu.ID = "cpu0"
	cpu.Type = "Xeon"
	cpu.SetAttr("role", model.Attr{Raw: "master"})
	cpu.SetAttr("pending", model.Attr{Raw: "?", Unknown: true})
	for i := 0; i < 4; i++ {
		cpu.Children = append(cpu.Children, model.New("core"))
	}
	node.Children = append(node.Children, cpu)
	sys.Children = append(sys.Children, node)
	return sys
}

func TestBuildStructure(t *testing.T) {
	m := Build(sample())
	if m.Len() != 7 {
		t.Fatalf("nodes = %d", m.Len())
	}
	root := m.Root()
	if root.Kind != "system" || root.ID != "srv" || root.Parent != -1 {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root children = %v", root.Children)
	}
	node := m.Node(root.Children[0])
	if node.Kind != "node" || node.Parent != 0 {
		t.Fatalf("node = %+v", node)
	}
	cpu, ok := m.Lookup("cpu0")
	if !ok || cpu.Type != "Xeon" || cpu.Ident() != "cpu0" {
		t.Fatalf("lookup cpu0 = %+v, %v", cpu, ok)
	}
	if _, ok := m.Lookup("ghost"); ok {
		t.Fatal("ghost found")
	}
	a, ok := cpu.Attr("role")
	if !ok || a.Raw != "master" || a.HasValue() {
		t.Fatalf("role = %+v", a)
	}
	p, ok := node.Attr("static_power")
	if !ok || !p.HasValue() || p.Value != 30 || p.Dim != units.Power {
		t.Fatalf("static_power = %+v", p)
	}
	unk, _ := cpu.Attr("pending")
	if unk.Flags&FlagUnknown == 0 {
		t.Fatal("unknown flag lost")
	}
	// Properties preserved with sorted keys.
	if len(root.Props) != 1 || root.Props[0].Name != "ExternalPowerMeter" {
		t.Fatalf("props = %+v", root.Props)
	}
	if v, ok := root.Props[0].Get("command"); !ok || v != "myscript.sh" {
		t.Fatalf("prop get = %q %v", v, ok)
	}
	if _, ok := root.Props[0].Get("zz"); ok {
		t.Fatal("missing prop key found")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := Build(sample())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, m2) {
		t.Fatal("round trip not equal")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.xrt")
	m := Build(sample())
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, m2) {
		t.Fatal("file round trip not equal")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.xrt")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",               // empty
		"NOPE",           // short
		"BADMAG\x01\x00", // wrong magic
		Magic + "\x63",   // wrong version (99)
		Magic + "\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f", // absurd string count
	}
	for _, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load(%q) succeeded", src)
		}
	}
	// Truncated valid prefix.
	m := Build(sample())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated load at %d succeeded", cut)
		}
	}
}

// TestEqualMatchesCanonical checks that Equal holds exactly when the
// canonical streams match, for the float values where == and bitwise
// equality part: NaN, and 0 against -0.
func TestEqualMatchesCanonical(t *testing.T) {
	canon := func(m *Model) []byte {
		var b bytes.Buffer
		if err := m.WriteCanonical(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	withValue := func(v float64) *Model {
		m := goldenModel()
		m.Nodes[1].Attrs[0].Value = v
		return m
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"NaN", math.NaN(), math.NaN()},
		{"zero", 0, 0},
		{"signed zero", 0, negZero},
		{"NaN and zero", math.NaN(), 0},
		{"values", 30, 31},
	} {
		a, b := withValue(c.a), withValue(c.b)
		same := bytes.Equal(canon(a), canon(b))
		if got := Equal(a, b); got != same {
			t.Errorf("%s: Equal = %v, canonical streams equal = %v", c.name, got, same)
		}
		if got := NodeContentEqual(&a.Nodes[1], &b.Nodes[1]); got != same {
			t.Errorf("%s: NodeContentEqual = %v, want %v", c.name, got, same)
		}
	}
	if nan := withValue(math.NaN()); !Equal(nan, nan) {
		t.Error("a model with a NaN value is not Equal to itself")
	}
}

func TestIndexOf(t *testing.T) {
	m := Build(sample())
	cpu, _ := m.Lookup("cpu0")
	if i := m.IndexOf(cpu); i < 0 || m.Node(i) != cpu {
		t.Fatalf("IndexOf = %d", i)
	}
	other := &Node{}
	if m.IndexOf(other) != -1 {
		t.Fatal("foreign node should be -1")
	}
}

// TestForkKeepsIndex checks that a fork owns its node slice but keeps
// the predecessor's identifier index instead of building its own.
func TestForkKeepsIndex(t *testing.T) {
	m := Build(sample())
	m.Lookup("")
	f := m.Fork()
	if &f.Nodes[0] == &m.Nodes[0] || !Equal(f, m) {
		t.Fatal("fork shares the node slice or differs in content")
	}
	if reflect.ValueOf(f.index).UnsafePointer() != reflect.ValueOf(m.index).UnsafePointer() {
		t.Fatal("fork does not keep the predecessor's index")
	}
	f.Nodes[1].Attrs = nil
	if i, ok := f.LookupIndex("cpu0"); !ok || f.Node(i).ID != "cpu0" {
		t.Fatalf("fork LookupIndex(cpu0) = %d, %v", i, ok)
	}
	if Equal(f, m) {
		t.Fatal("replacing a fork's node changed its predecessor")
	}
}

func TestEmptyishModels(t *testing.T) {
	var m Model
	if m.Root() != nil {
		t.Fatal("empty root should be nil")
	}
	single := Build(model.New("system"))
	if single.Len() != 1 || single.Root().Parent != -1 {
		t.Fatal("single node model wrong")
	}
	var buf bytes.Buffer
	if err := single.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil || !Equal(single, back) {
		t.Fatalf("single round trip: %v", err)
	}
}

// Property: arbitrary trees round-trip through the binary format.
func TestQuickRoundTrip(t *testing.T) {
	f := func(ids []uint16, vals []uint32) bool {
		root := model.New("system")
		root.ID = "r"
		cur := root
		for i, id := range ids {
			if i > 32 {
				break
			}
			c := model.New("node")
			c.ID = "n" + itoa(int(id))
			if i < len(vals) {
				c.SetQuantity("static_power", units.Quantity{Value: float64(vals[i]), Dim: units.Power})
			}
			cur.Children = append(cur.Children, c)
			if id%3 == 0 {
				cur = c // descend sometimes
			}
		}
		m := Build(root)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return false
		}
		m2, err := Load(&buf)
		if err != nil {
			return false
		}
		return Equal(m, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Property: string interning means repeated kinds/attrs shrink the file:
// a model with N identical nodes costs far less than N times one node.
func TestInterningCompactness(t *testing.T) {
	mk := func(n int) int {
		root := model.New("system")
		root.ID = "s"
		for i := 0; i < n; i++ {
			c := model.New("cpu")
			c.ID = "cpu" // deliberately identical strings
			c.SetAttr("role", model.Attr{Raw: "worker"})
			root.Children = append(root.Children, c)
		}
		var buf bytes.Buffer
		if err := Build(root).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	one := mk(1)
	fifty := mk(50)
	if fifty >= one*50/2 {
		t.Fatalf("interning ineffective: 1 node = %dB, 50 nodes = %dB", one, fifty)
	}
}

func TestWriteJSON(t *testing.T) {
	m := Build(sample())
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`"kind": "system"`, `"id": "srv"`, `"type": "Xeon"`,
		`"role": "master"`, `"pending": "?"`,
		`"unit": "W"`, `"ExternalPowerMeter"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	// Empty model yields valid JSON too.
	var empty Model
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("empty JSON = %q", buf.String())
	}
}

// TestLoadRejectsForgedRecords feeds hand-assembled files that are
// well-formed up to one forged field. Load must reject each with an
// error wrapping ErrWire; the unforged control must load.
func TestLoadRejectsForgedRecords(t *testing.T) {
	// file assembles a .xrt file with string table {"system"} and the
	// given node section.
	file := func(nodes func(e *Enc)) []byte {
		e := Enc{Buf: []byte(Magic)}
		e.Uvarint(Version)
		e.Uvarint(1)
		e.rawString("system")
		nodes(&e)
		return e.Buf
	}
	// root appends one root record with the given parent, string ref,
	// attr count and child list.
	root := func(e *Enc, parent int64, ref, nattrs uint64, children ...uint64) {
		e.Uvarint(1) // nnodes
		for range 4 {
			e.Uvarint(ref)
		}
		e.Varint(parent)
		e.Uvarint(nattrs)
		e.Uvarint(0) // nprops
		e.Uvarint(uint64(len(children)))
		for _, c := range children {
			e.Uvarint(c)
		}
	}
	if _, err := Load(bytes.NewReader(file(func(e *Enc) { root(e, -1, 0, 0) }))); err != nil {
		t.Fatalf("control file rejected: %v", err)
	}
	cases := map[string][]byte{
		"string ref out of range":  file(func(e *Enc) { root(e, -1, 1, 0) }),
		"root with a parent":       file(func(e *Enc) { root(e, 0, 0, 0) }),
		"parent below -1":          file(func(e *Enc) { root(e, -2, 0, 0) }),
		"child index out of range": file(func(e *Enc) { root(e, -1, 0, 0, 1) }),
		"attr count over cap": file(func(e *Enc) {
			root(e, -1, 0, MaxWireCount+1)
			e.Buf = append(e.Buf, make([]byte, 2*MaxWireCount)...) // enough input
		}),
		"attr count beyond input": file(func(e *Enc) { root(e, -1, 0, 1000) }),
		"node count over cap":     file(func(e *Enc) { e.Uvarint(1<<26 + 1) }),
		"node count beyond input": file(func(e *Enc) { e.Uvarint(1000) }),
		"string over 1 MiB": func() []byte {
			e := Enc{Buf: []byte(Magic)}
			e.Uvarint(Version)
			e.Uvarint(1)
			e.Uvarint(1<<20 + 1)
			e.Buf = append(e.Buf, make([]byte, 1<<20+1)...)
			return e.Buf
		}(),
		"string table over cap": append([]byte(Magic), 1, 0x81, 0x80, 0x80, 0x08), // 1<<24 + 1
		"truncated body":        file(func(e *Enc) { root(e, -1, 0, 0) })[:len(Magic)+9],
	}
	for name, src := range cases {
		if _, err := Load(bytes.NewReader(src)); !errors.Is(err, ErrWire) {
			t.Errorf("%s: err = %v, want one wrapping ErrWire", name, err)
		}
	}
}
