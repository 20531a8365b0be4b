package ast

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleCPU = `<!-- comment -->
<cpu name="Intel_Xeon_E5_2630L">
  <group prefix="core_group" quantity="2">
    <group prefix="core" quantity="2">
      <core frequency="2" frequency_unit="GHz" />
      <cache name="L1" size="32" unit="KiB" />
    </group>
    <cache name="L2" size="256" unit="KiB" />
  </group>
  <cache name="L3" size="15" unit="MiB" />
  <power_model type="power_model_E5_2630L" />
</cpu>
`

func mustParse(t *testing.T, src string) *Element {
	t.Helper()
	e, err := Parse("test.xpdl", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return e
}

func TestParseListing1(t *testing.T) {
	root := mustParse(t, sampleCPU)
	if root.Name != "cpu" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, ok := root.Attr("name"); !ok || v != "Intel_Xeon_E5_2630L" {
		t.Fatalf("name attr = %q, %v", v, ok)
	}
	if len(root.Children) != 3 {
		t.Fatalf("children = %d", len(root.Children))
	}
	outer := root.Children[0]
	if outer.Name != "group" || outer.AttrDefault("quantity", "") != "2" {
		t.Fatalf("outer group wrong: %+v", outer)
	}
	inner := outer.FirstChild("group")
	if inner == nil {
		t.Fatal("inner group missing")
	}
	if c := inner.FirstChild("core"); c == nil || c.AttrDefault("frequency_unit", "") != "GHz" {
		t.Fatal("core element wrong")
	}
	if root.CountElements() != 8 {
		t.Fatalf("CountElements = %d, want 8", root.CountElements())
	}
}

func TestPositions(t *testing.T) {
	root := mustParse(t, sampleCPU)
	if root.Pos.Line != 2 {
		t.Errorf("cpu line = %d, want 2", root.Pos.Line)
	}
	l3 := root.ChildrenNamed("cache")
	if len(l3) != 1 {
		t.Fatalf("cache children = %d", len(l3))
	}
	if l3[0].Pos.Line != 10 {
		t.Errorf("L3 line = %d, want 10", l3[0].Pos.Line)
	}
	if got := l3[0].Pos.String(); !strings.HasPrefix(got, "test.xpdl:10:") {
		t.Errorf("pos string = %q", got)
	}
}

func TestParseText(t *testing.T) {
	root := mustParse(t, `<a>hello <b/> world</a>`)
	if root.Text != "hello world" {
		t.Fatalf("text = %q", root.Text)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		``,           // empty
		`<a><b></a>`, // mismatched
		`<a>`,        // unclosed
		`<a/><b/>`,   // two roots
		`<device name="Nvidia_Kepler"><compute_capability="3.0" /></device>`, // the paper's malformed fragment
	}
	for _, src := range cases {
		if _, err := Parse("bad.xpdl", []byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAttrOps(t *testing.T) {
	e := mustParse(t, `<m a="1" b="2"/>`)
	if !e.HasAttr("a") || e.HasAttr("z") {
		t.Fatal("HasAttr wrong")
	}
	e.SetAttr("a", "9")
	if v, _ := e.Attr("a"); v != "9" {
		t.Fatal("SetAttr replace failed")
	}
	e.SetAttr("c", "3")
	if v, _ := e.Attr("c"); v != "3" {
		t.Fatal("SetAttr append failed")
	}
	e.RemoveAttr("b")
	if e.HasAttr("b") {
		t.Fatal("RemoveAttr failed")
	}
	names := e.AttrNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "c" {
		t.Fatalf("AttrNames = %v", names)
	}
	if e.AttrDefault("zz", "dflt") != "dflt" {
		t.Fatal("AttrDefault fallthrough failed")
	}
}

func TestWalkAndFind(t *testing.T) {
	root := mustParse(t, sampleCPU)
	var names []string
	root.Walk(func(e *Element) bool {
		names = append(names, e.Name)
		return e.Name != "group" || e.AttrDefault("prefix", "") != "core"
	})
	// The inner group's children are skipped.
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "core,") {
		t.Fatalf("walk did not skip: %v", joined)
	}
	found := root.Find(func(e *Element) bool { return e.Name == "cache" && e.AttrDefault("name", "") == "L2" })
	if found == nil {
		t.Fatal("Find L2 failed")
	}
	if root.Find(func(e *Element) bool { return e.Name == "nonexistent" }) != nil {
		t.Fatal("Find should return nil")
	}
}

func TestClone(t *testing.T) {
	root := mustParse(t, sampleCPU)
	cp := root.Clone()
	cp.SetAttr("name", "changed")
	cp.Children[0].SetAttr("quantity", "99")
	if v, _ := root.Attr("name"); v != "Intel_Xeon_E5_2630L" {
		t.Fatal("clone aliases attrs")
	}
	if root.Children[0].AttrDefault("quantity", "") != "2" {
		t.Fatal("clone aliases children")
	}
}

func TestRoundTrip(t *testing.T) {
	root := mustParse(t, sampleCPU)
	out := ToString(root)
	again, err := Parse("rt.xpdl", []byte(out))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if ToString(again) != out {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", out, ToString(again))
	}
}

func TestEscaping(t *testing.T) {
	e := &Element{Name: "p", Attrs: []Attr{{Name: "v", Value: `a<b&"c"`}}, Text: "x < y & z"}
	out := ToString(e)
	again, err := Parse("esc.xpdl", []byte(out))
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, out)
	}
	if v, _ := again.Attr("v"); v != `a<b&"c"` {
		t.Fatalf("attr escape lost: %q", v)
	}
	if again.Text != "x < y & z" {
		t.Fatalf("text escape lost: %q", again.Text)
	}
}

// TestEscapingOutsideChars pins the characters a parser would reject or
// change: a forbidden rune is written as U+FFFD, and \r as a character
// reference so it does not come back as \n. Each case must reparse to
// want, in an attribute and in text, and serialize again to the same
// bytes.
func TestEscapingOutsideChars(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"control", "a\x10b", "a\uFFFDb"},
		{"carriage return", "a\rb", "a\rb"},
		{"noncharacter", "a\uFFFEb", "a\uFFFDb"},
		{"not utf-8", "a\xffb", "a\uFFFDb"},
	} {
		e := &Element{Name: "p", Attrs: []Attr{{Name: "v", Value: c.in}}, Text: c.in}
		out := ToString(e)
		again, err := Parse("esc.xpdl", []byte(out))
		if err != nil {
			t.Errorf("%s: reparse: %v\n%q", c.name, err, out)
			continue
		}
		if v, _ := again.Attr("v"); v != c.want {
			t.Errorf("%s: attr came back %q, want %q", c.name, v, c.want)
		}
		if again.Text != c.want {
			t.Errorf("%s: text came back %q, want %q", c.name, again.Text, c.want)
		}
		if back := ToString(again); back != out {
			t.Errorf("%s: second serialization %q, first %q", c.name, back, out)
		}
	}
}

func TestNamespaceDeclsSkipped(t *testing.T) {
	e := mustParse(t, `<a xmlns:x="http://e" x:b="1" c="2"/>`)
	if e.HasAttr("xmlns") {
		t.Fatal("xmlns kept")
	}
	if v, _ := e.Attr("c"); v != "2" {
		t.Fatal("regular attr lost")
	}
}

// Property: any tree built from sanitized random names/values survives a
// serialize→parse→serialize round trip byte-identically.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	f := func(name, aname, aval string, nChildren uint8) bool {
		e := &Element{Name: "e" + sanitize(name)}
		e.SetAttr("a"+sanitize(aname), aval)
		for i := 0; i < int(nChildren%5); i++ {
			e.Children = append(e.Children, &Element{Name: "c" + sanitize(name)})
		}
		out := ToString(e)
		again, err := Parse("q.xpdl", []byte(out))
		if err != nil {
			return false
		}
		return ToString(again) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLineIndexBinarySearch(t *testing.T) {
	src := []byte("a\nbb\nccc\n")
	li := newLineIndex(src)
	cases := []struct {
		off, line, col int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 2, 1}, {4, 2, 3}, {5, 3, 1}, {8, 3, 4},
	}
	for _, c := range cases {
		p := li.pos("f", c.off)
		if p.Line != c.line || p.Column != c.col {
			t.Errorf("pos(%d) = %d:%d, want %d:%d", c.off, p.Line, p.Column, c.line, c.col)
		}
	}
}
