package scenario

import (
	"fmt"
	"math"

	"xpdl/internal/energy"
	"xpdl/internal/expr"
	"xpdl/internal/model"
)

// Objective kinds.
const (
	// KindExpr evaluates Expr over the point environment (parameter and
	// derived values) extended with the model helpers attr(ident, name),
	// power(ident) and count(kind).
	KindExpr = "expr"
	// KindStaticPower is the synthesized static-power total (W) of
	// Component ("" = the whole system).
	KindStaticPower = "static_power"
	// KindAttr reads one quantity attribute of one component.
	KindAttr = "attr"
	// KindTaskEnergy / KindTaskTime price an instruction mix against an
	// instruction-energy table at a frequency (Section III-D).
	KindTaskEnergy = "task_energy"
	KindTaskTime   = "task_time"
	// KindTransferEnergy / KindTransferTime price a payload over an
	// interconnect channel (Listing 3).
	KindTransferEnergy = "transfer_energy"
	KindTransferTime   = "transfer_time"
)

// Senses.
const (
	SenseMin = "min"
	SenseMax = "max"
)

// ObjectiveSpec is one per-point metric.
type ObjectiveSpec struct {
	// Name labels the objective in results; required, unique.
	Name string `json:"name"`
	// Kind selects the evaluator (default KindExpr when Expr is set).
	Kind string `json:"kind,omitempty"`
	// Sense is "min" (default) or "max"; dominance in the Pareto pass
	// honors it.
	Sense string `json:"sense,omitempty"`

	// Expr is the expression for KindExpr.
	Expr string `json:"expr,omitempty"`
	// Component addresses the model element for the attr/static_power
	// kinds ("" = root for static_power).
	Component string `json:"component,omitempty"`
	// Attr names the quantity attribute for KindAttr.
	Attr string `json:"attr,omitempty"`

	// Table names the <instructions> element for the task kinds.
	Table string `json:"table,omitempty"`
	// Counts is the dynamic instruction mix.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Cycles optionally maps instructions to cycles-per-instruction
	// (default 1) for the time estimate.
	Cycles map[string]float64 `json:"cycles,omitempty"`
	// FreqGHz is an expression over the point environment giving the
	// execution frequency in GHz (so a swept parameter can drive it).
	FreqGHz string `json:"freqGhz,omitempty"`
	// StaticFrom, when set, integrates that component's synthesized
	// static power over the task time into the energy estimate.
	StaticFrom string `json:"staticPowerFrom,omitempty"`

	// Channel names the interconnect/channel for the transfer kinds.
	Channel string `json:"channel,omitempty"`
	// Bytes and Messages size the transfer.
	Bytes    int64 `json:"bytes,omitempty"`
	Messages int64 `json:"messages,omitempty"`
}

func (o *ObjectiveSpec) kind() string {
	if o.Kind == "" && o.Expr != "" {
		return KindExpr
	}
	return o.Kind
}

func (o *ObjectiveSpec) validate(i int) error {
	if o.Name == "" {
		return fmt.Errorf("scenario: objective %d has no name", i)
	}
	switch o.Sense {
	case "", SenseMin, SenseMax:
	default:
		return fmt.Errorf("scenario: objective %s: sense %q (want min or max)", o.Name, o.Sense)
	}
	if len(o.Expr) > maxExprLen || len(o.FreqGHz) > maxExprLen {
		return fmt.Errorf("scenario: objective %s: expression longer than %d bytes", o.Name, maxExprLen)
	}
	switch o.kind() {
	case KindExpr:
		if o.Expr == "" {
			return fmt.Errorf("scenario: objective %s: kind expr needs expr", o.Name)
		}
		if _, err := expr.Compile(o.Expr); err != nil {
			return fmt.Errorf("scenario: objective %s: %v", o.Name, err)
		}
	case KindStaticPower:
	case KindAttr:
		if o.Component == "" || o.Attr == "" {
			return fmt.Errorf("scenario: objective %s: kind attr needs component and attr", o.Name)
		}
	case KindTaskEnergy, KindTaskTime:
		if o.Table == "" || len(o.Counts) == 0 {
			return fmt.Errorf("scenario: objective %s: kind %s needs table and counts", o.Name, o.kind())
		}
		if o.FreqGHz == "" {
			return fmt.Errorf("scenario: objective %s: kind %s needs freqGhz", o.Name, o.kind())
		}
		if _, err := expr.Compile(o.FreqGHz); err != nil {
			return fmt.Errorf("scenario: objective %s: freqGhz: %v", o.Name, err)
		}
		for n, c := range o.Counts {
			if c < 0 {
				return fmt.Errorf("scenario: objective %s: negative count for %s", o.Name, n)
			}
		}
	case KindTransferEnergy, KindTransferTime:
		if o.Channel == "" {
			return fmt.Errorf("scenario: objective %s: kind %s needs channel", o.Name, o.kind())
		}
		if o.Bytes < 0 || o.Messages < 0 {
			return fmt.Errorf("scenario: objective %s: bytes and messages must be non-negative", o.Name)
		}
	default:
		return fmt.Errorf("scenario: objective %s: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// sense returns the normalized optimization direction.
func (o *ObjectiveSpec) sense() string {
	if o.Sense == SenseMax {
		return SenseMax
	}
	return SenseMin
}

// pointEnv is the expression environment of one evaluated point:
// parameter/derived values plus model-reading helper functions.
type pointEnv struct {
	vals map[string]expr.Value
	tree *model.Component
}

func (e *pointEnv) Lookup(name string) (expr.Value, bool) {
	v, ok := e.vals[name]
	return v, ok
}

func (e *pointEnv) Call(name string, args []expr.Value) (expr.Value, error) {
	switch name {
	case "attr":
		if len(args) != 2 || args[0].Kind != expr.KindString || args[1].Kind != expr.KindString {
			return expr.Value{}, fmt.Errorf("attr(ident, attrName) wants two strings")
		}
		c := e.tree.FindByID(args[0].Str)
		if c == nil {
			return expr.Value{}, fmt.Errorf("attr: component %q not found", args[0].Str)
		}
		q, ok := c.QuantityAttr(args[1].Str)
		if !ok {
			return expr.Value{}, fmt.Errorf("attr: %s has no quantity attribute %q", args[0].Str, args[1].Str)
		}
		return expr.Number(q.Value), nil
	case "power":
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Value{}, fmt.Errorf("power(ident) wants one string")
		}
		b := energy.StaticBreakdown(e.tree).Find(args[0].Str)
		if b == nil {
			return expr.Value{}, fmt.Errorf("power: component %q not found", args[0].Str)
		}
		return expr.Number(b.TotalW), nil
	case "count":
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Value{}, fmt.Errorf("count(kind) wants one string")
		}
		return expr.Number(float64(e.tree.CountKind(args[0].Str))), nil
	}
	return expr.CallBuiltin(name, args)
}

// evalObjective computes one objective over a resolved, analyzed tree.
func evalObjective(o *ObjectiveSpec, tree *model.Component, env *pointEnv) (float64, error) {
	switch o.kind() {
	case KindExpr:
		v, err := expr.Eval(o.Expr, env)
		if err != nil {
			return 0, fmt.Errorf("objective %s: %v", o.Name, err)
		}
		if v.Kind != expr.KindNumber {
			return 0, fmt.Errorf("objective %s: expression is not a number (%s)", o.Name, v.GoString())
		}
		return v.Num, nil
	case KindStaticPower:
		b := energy.StaticBreakdown(tree)
		if o.Component != "" {
			if b = b.Find(o.Component); b == nil {
				return 0, fmt.Errorf("objective %s: component %q not found", o.Name, o.Component)
			}
		}
		return b.TotalW, nil
	case KindAttr:
		c := tree.FindByID(o.Component)
		if c == nil {
			return 0, fmt.Errorf("objective %s: component %q not found", o.Name, o.Component)
		}
		q, ok := c.QuantityAttr(o.Attr)
		if !ok {
			return 0, fmt.Errorf("objective %s: %s has no quantity attribute %q", o.Name, o.Component, o.Attr)
		}
		return q.Value, nil
	case KindTaskEnergy, KindTaskTime:
		c := tree.FindByID(o.Table)
		if c == nil || c.Kind != "instructions" {
			return 0, fmt.Errorf("objective %s: instruction table %q not found", o.Name, o.Table)
		}
		table, err := energy.TableFromComponent(c)
		if err != nil {
			return 0, fmt.Errorf("objective %s: %v", o.Name, err)
		}
		fv, err := expr.Eval(o.FreqGHz, env)
		if err != nil {
			return 0, fmt.Errorf("objective %s: freqGhz: %v", o.Name, err)
		}
		if fv.Kind != expr.KindNumber || fv.Num <= 0 || math.IsNaN(fv.Num) || math.IsInf(fv.Num, 0) {
			return 0, fmt.Errorf("objective %s: freqGhz must be a positive number, got %s", o.Name, fv.GoString())
		}
		spec := energy.TaskSpec{
			InstCounts:    o.Counts,
			FreqGHz:       fv.Num,
			CyclesPerInst: o.Cycles,
		}
		if spec.CyclesPerInst == nil {
			spec.CyclesPerInst = map[string]float64{}
		}
		if o.StaticFrom != "" {
			b := energy.StaticBreakdown(tree).Find(o.StaticFrom)
			if b == nil {
				return 0, fmt.Errorf("objective %s: staticPowerFrom %q not found", o.Name, o.StaticFrom)
			}
			spec.StaticPowerW = b.TotalW
		}
		energyJ, timeS, err := table.TaskEnergy(spec)
		if err != nil {
			return 0, fmt.Errorf("objective %s: %v", o.Name, err)
		}
		if o.kind() == KindTaskTime {
			return timeS, nil
		}
		return energyJ, nil
	case KindTransferEnergy, KindTransferTime:
		c := tree.FindByID(o.Channel)
		if c == nil || (c.Kind != "channel" && c.Kind != "interconnect") {
			return 0, fmt.Errorf("objective %s: channel %q not found", o.Name, o.Channel)
		}
		timeS, energyJ := energy.ChannelCost(c).Cost(o.Bytes, o.Messages)
		if o.kind() == KindTransferTime {
			return timeS, nil
		}
		return energyJ, nil
	}
	return 0, fmt.Errorf("objective %s: unknown kind %q", o.Name, o.Kind)
}
