// Package ast provides the XML front-end of the XPDL toolchain: a
// position-aware element tree produced from .xpdl source text.
//
// The paper's prototype used the Xerces-C parser; this reproduction uses
// Go's encoding/xml token stream and keeps byte offsets and line/column
// positions for every element and attribute so that later passes
// (schema validation, reference resolution, constraint checking) can
// report precise diagnostics.
//
// The AST is deliberately untyped: XPDL is extensible, so unknown
// elements and attributes must survive parsing and be preserved for
// tools that understand them (the <properties> escape hatch depends on
// this).
package ast

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Pos is a position within a source file.
type Pos struct {
	File   string
	Line   int
	Column int
}

// String renders "file:line:col" with empty parts omitted.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Column)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Column)
}

// IsValid reports whether the position carries real line information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Attr is a single XML attribute, in source order.
type Attr struct {
	Name  string
	Value string
}

// Element is one XML element with its attributes, text content and
// child elements in document order.
type Element struct {
	Name     string
	Attrs    []Attr
	Children []*Element
	Text     string // concatenated, trimmed character data
	Pos      Pos
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the value of the named attribute, or def when
// absent.
func (e *Element) AttrDefault(name, def string) string {
	if v, ok := e.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the named attribute is present.
func (e *Element) HasAttr(name string) bool {
	_, ok := e.Attr(name)
	return ok
}

// SetAttr sets or replaces the named attribute, preserving order for
// existing attributes and appending new ones.
func (e *Element) SetAttr(name, value string) {
	for i, a := range e.Attrs {
		if a.Name == name {
			e.Attrs[i].Value = value
			return
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present.
func (e *Element) RemoveAttr(name string) {
	for i, a := range e.Attrs {
		if a.Name == name {
			e.Attrs = append(e.Attrs[:i], e.Attrs[i+1:]...)
			return
		}
	}
}

// ChildrenNamed returns all direct children with the given element name.
func (e *Element) ChildrenNamed(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstChild returns the first direct child with the given name, or nil.
func (e *Element) FirstChild(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Walk visits e and every descendant in document order. If fn returns
// false for an element, its subtree is skipped.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// Find returns the first element in the subtree (including e itself)
// for which pred returns true, or nil.
func (e *Element) Find(pred func(*Element) bool) *Element {
	var found *Element
	e.Walk(func(x *Element) bool {
		if found != nil {
			return false
		}
		if pred(x) {
			found = x
			return false
		}
		return true
	})
	return found
}

// CountElements returns the number of elements in the subtree rooted at
// e, including e itself.
func (e *Element) CountElements() int {
	n := 0
	e.Walk(func(*Element) bool { n++; return true })
	return n
}

// Clone returns a deep copy of the element subtree.
func (e *Element) Clone() *Element {
	cp := &Element{Name: e.Name, Text: e.Text, Pos: e.Pos}
	cp.Attrs = append([]Attr(nil), e.Attrs...)
	cp.Children = make([]*Element, len(e.Children))
	for i, c := range e.Children {
		cp.Children[i] = c.Clone()
	}
	return cp
}

// AttrNames returns the sorted attribute names (useful for diagnostics
// and deterministic output).
func (e *Element) AttrNames() []string {
	names := make([]string, len(e.Attrs))
	for i, a := range e.Attrs {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// lineIndex converts byte offsets to line/column positions.
type lineIndex struct {
	starts []int // byte offset of the start of each line
}

func newLineIndex(src []byte) *lineIndex {
	li := &lineIndex{starts: []int{0}}
	for i, b := range src {
		if b == '\n' {
			li.starts = append(li.starts, i+1)
		}
	}
	return li
}

func (li *lineIndex) pos(file string, offset int) Pos {
	// Binary search for the greatest line start <= offset.
	lo, hi := 0, len(li.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if li.starts[mid] <= offset {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Pos{File: file, Line: lo + 1, Column: offset - li.starts[lo] + 1}
}

// ParseError is a syntax-level failure with position information where
// available.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	if e.Pos.File != "" {
		return fmt.Sprintf("%s: %s", e.Pos.File, e.Msg)
	}
	return e.Msg
}

// Parse reads one XML document from src and returns its root element.
// The file name is used only for positions in diagnostics.
func Parse(file string, src []byte) (*Element, error) {
	li := newLineIndex(src)
	dec := xml.NewDecoder(strings.NewReader(string(src)))
	dec.Strict = true

	var root *Element
	var stack []*Element
	var textBuf strings.Builder

	flushText := func() {
		if len(stack) == 0 {
			textBuf.Reset()
			return
		}
		txt := strings.TrimSpace(textBuf.String())
		textBuf.Reset()
		if txt == "" {
			return
		}
		top := stack[len(stack)-1]
		if top.Text == "" {
			top.Text = txt
		} else {
			top.Text += " " + txt
		}
	}

	for {
		startOff := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, &ParseError{Pos: li.pos(file, int(startOff)), Msg: err.Error()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flushText()
			el := &Element{
				Name: t.Name.Local,
				Pos:  li.pos(file, int(startOff)),
			}
			for _, a := range t.Attr {
				// Skip namespace declarations; XPDL does not use them.
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, &ParseError{Pos: el.Pos, Msg: "multiple root elements"}
				}
				root = el
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			flushText()
			if len(stack) == 0 {
				return nil, &ParseError{Pos: li.pos(file, int(startOff)), Msg: "unexpected end element"}
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			textBuf.Write([]byte(t))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored: comments, <?xml?>, <!DOCTYPE>.
		}
	}
	if len(stack) != 0 {
		return nil, &ParseError{Pos: stack[len(stack)-1].Pos, Msg: fmt.Sprintf("unclosed element <%s>", stack[len(stack)-1].Name)}
	}
	if root == nil {
		return nil, &ParseError{Pos: Pos{File: file}, Msg: "empty document"}
	}
	return root, nil
}

// WriteXML serializes the element tree back to indented XML. The output
// is stable (attributes keep source order) so it can be used in golden
// tests and for emitting normalized .xpdl files.
func WriteXML(w io.Writer, e *Element) error {
	return writeXML(w, e, 0)
}

func writeXML(w io.Writer, e *Element, depth int) error {
	indent := strings.Repeat("  ", depth)
	var b strings.Builder
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(e.Name)
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		b.WriteString(escapeAttr(a.Value))
		b.WriteByte('"')
	}
	if len(e.Children) == 0 && e.Text == "" {
		b.WriteString(" />\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	b.WriteString(">")
	if e.Text != "" {
		b.WriteString(escapeText(e.Text))
	}
	if len(e.Children) > 0 {
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		for _, c := range e.Children {
			if err := writeXML(w, c, depth+1); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", indent, e.Name)
		return err
	}
	b.WriteString("</")
	b.WriteString(e.Name)
	b.WriteString(">\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// The escapers write \r as a character reference, since a parser turns
// a literal one into \n, and are built once: a Replacer costs more to
// build than to run over one attribute.
var (
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;")
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;")
)

func escapeAttr(s string) string { return attrEscaper.Replace(legalChars(s)) }

func escapeText(s string) string { return textEscaper.Replace(legalChars(s)) }

// legalChars replaces every rune XML 1.0 forbids, and every byte that
// is not UTF-8, with U+FFFD, as encoding/xml.EscapeText does; Parse
// rejects both. It returns s itself when there is nothing to replace.
func legalChars(s string) string {
	if utf8.ValidString(s) && strings.IndexFunc(s, illegalChar) < 0 {
		return s
	}
	return strings.Map(func(r rune) rune {
		if illegalChar(r) {
			return utf8.RuneError
		}
		return r
	}, s)
}

// illegalChar reports whether r lies outside XML 1.0's Char production.
func illegalChar(r rune) bool {
	return !(r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF)
}

// ToString renders the tree to a string; convenience for tests.
func ToString(e *Element) string {
	var b strings.Builder
	_ = WriteXML(&b, e)
	return b.String()
}
