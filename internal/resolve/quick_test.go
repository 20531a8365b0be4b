package resolve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xpdl/internal/model"
	"xpdl/internal/parser"
	"xpdl/internal/repo"
)

// Property: a group with quantity n expands to exactly n members with
// ids prefix0..prefix(n-1), each containing one clone of every template
// child, for arbitrary small n and template widths.
func TestQuickGroupExpansionShape(t *testing.T) {
	f := func(qn, width uint8) bool {
		n := int(qn % 24)
		w := int(width%4) + 1
		rp, err := repo.New()
		if err != nil {
			return false
		}
		root := model.New("cpu")
		root.ID = "c0"
		g := model.New("group")
		g.Prefix = "m"
		g.Quantity = fmt.Sprintf("%d", n)
		for i := 0; i < w; i++ {
			g.Children = append(g.Children, model.New("core"))
		}
		root.Children = append(root.Children, g)
		if err := rp.Register(root); err != nil {
			return false
		}
		out, err := New(rp).ResolveSystem("c0")
		if err != nil {
			return false
		}
		if out.CountKind("core") != n*w {
			return false
		}
		for i := 0; i < n; i++ {
			m := out.FindByID(fmt.Sprintf("m%d", i))
			if m == nil || len(m.Children) != w {
				return false
			}
		}
		// No member beyond n-1 exists.
		return out.FindByID(fmt.Sprintf("m%d", n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a group of n members resolves to n subtrees that are
// DeepEqual to member 0 once their ids are equalised, for random group
// sizes and templates mixing type references, bound parameters, nested
// groups, properties and constraints.
func TestQuickGroupMembersEqualMember0(t *testing.T) {
	f := func(qn, shape uint8) bool {
		n := int(qn%12) + 1
		files := map[string]string{
			"Lane": `
<core name="Lane" frequency="lf" frequency_unit="MHz">
  <param name="lf" type="frequency" value="900"/>
  <properties><property name="isa" value="rv64"/></properties>
</core>`,
		}
		var tpl strings.Builder
		if shape&1 != 0 {
			tpl.WriteString(`<param name="w" value="2" range="1, 2, 4"/><const name="sz" value="64" unit="KB"/>`)
			tpl.WriteString(`<cache name="L1" size="sz"><constraints><constraint expr="w &lt;= 4"/></constraints></cache>`)
		}
		if shape&2 != 0 {
			tpl.WriteString(`<core type="Lane"/>`)
		}
		if shape&4 != 0 {
			tpl.WriteString(fmt.Sprintf(`<group prefix="sub" quantity="%d"><core type="Lane"/><memory name="m"/></group>`, shape%3))
		}
		tpl.WriteString(`<memory name="reg" size="1" unit="KB"/>`)
		files["c0"] = fmt.Sprintf(`<cpu id="c0"><group prefix="m" quantity="%d">%s</group></cpu>`, n, tpl.String())
		rp, err := repo.New()
		if err != nil {
			return false
		}
		p := parser.New()
		for name, src := range files {
			c, _, err := p.ParseFile(name+".xpdl", []byte(src))
			if err != nil || rp.Register(c) != nil {
				return false
			}
		}
		out, err := New(rp).ResolveSystem("c0")
		if err != nil {
			return false
		}
		members := out.Children[0].Children
		if len(members) != n {
			return false
		}
		for i, m := range members {
			if m.ID != fmt.Sprintf("m%d", i) {
				return false
			}
			eq := *m
			eq.ID = members[0].ID
			if !reflect.DeepEqual(&eq, members[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
