// Package composition implements conditional composition of annotated
// multi-variant components — the PEPPHER/EXCESS use case that motivates
// XPDL's runtime query API (Sections II and IV): each implementation
// variant of a component carries a selectability constraint over the
// platform model (library availability, device presence, ...) and over
// call-site properties (problem size, sparsity density, ...); at call
// time the dispatcher filters variants by constraint and picks the one
// with the lowest predicted cost.
package composition

import (
	"fmt"
	"math"
	"sort"

	"xpdl/internal/expr"
	"xpdl/internal/query"
)

// Context is the information available at a call site: the platform
// query session plus call-specific properties (e.g. n, density).
type Context struct {
	Session *query.Session
	Vars    map[string]expr.Value
}

// Env builds the expression environment combining platform introspection
// functions with the call-site variables.
func (c Context) Env() expr.Env {
	if c.Session != nil {
		return c.Session.Env(c.Vars)
	}
	return expr.MapEnv{Vars: c.Vars}
}

// Result is the outcome of executing one variant.
type Result struct {
	TimeS   float64
	EnergyJ float64
	// Value is a variant-specific checksum used by tests to verify that
	// all variants compute the same answer.
	Value float64
}

// Variant is one implementation of a component.
type Variant struct {
	Name string
	// Selectable is the selectability constraint expression; empty means
	// always selectable.
	Selectable string
	// Cost predicts the execution time (seconds) for ranking.
	Cost func(ctx Context) float64
	// Run executes the variant.
	Run func(ctx Context) (Result, error)
}

// Component is a multi-variant component with a dispatcher.
type Component struct {
	Name     string
	Variants []*Variant
}

// Selectable returns the variants whose constraints hold in the given
// context, preserving declaration order. Constraint evaluation errors
// count as "not selectable" but are reported.
func (c *Component) Selectable(ctx Context) ([]*Variant, error) {
	var out []*Variant
	var firstErr error
	env := ctx.Env()
	for _, v := range c.Variants {
		if v.Selectable == "" {
			out = append(out, v)
			continue
		}
		holds, err := query.EvalExpr(v.Selectable, env)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("composition: %s/%s: %w", c.Name, v.Name, err)
			}
			continue
		}
		if holds.Truthy() {
			out = append(out, v)
		}
	}
	return out, firstErr
}

// Select returns the selectable variant with the lowest predicted cost.
func (c *Component) Select(ctx Context) (*Variant, error) {
	cands, err := c.Selectable(ctx)
	return c.Rank(ctx, cands, err)
}

// Rank returns the candidate with the lowest predicted cost, the
// earliest on ties, evaluating each candidate's Cost once. cands and
// selErr are one Selectable pass's answer, so a caller that needs the
// selectable list as well evaluates each guard once:
//
//	cands, selErr := c.Selectable(ctx)
//	best, err := c.Rank(ctx, cands, selErr)
//
// With no candidates it fails with selErr, or with a "no selectable
// variant" error when selErr is nil.
func (c *Component) Rank(ctx Context, cands []*Variant, selErr error) (*Variant, error) {
	if len(cands) == 0 {
		if selErr != nil {
			return nil, selErr
		}
		return nil, fmt.Errorf("composition: %s: no selectable variant", c.Name)
	}
	best := cands[0]
	bestCost := math.MaxFloat64
	for _, v := range cands {
		cost := 0.0
		if v.Cost != nil {
			cost = v.Cost(ctx)
		}
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best, nil
}

// Call selects and runs the best variant.
func (c *Component) Call(ctx Context) (Result, *Variant, error) {
	v, err := c.Select(ctx)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := v.Run(ctx)
	if err != nil {
		return Result{}, v, err
	}
	return res, v, nil
}

// Variant returns the named variant, or nil.
func (c *Component) Variant(name string) *Variant {
	for _, v := range c.Variants {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// VariantNames returns the declared variant names, sorted.
func (c *Component) VariantNames() []string {
	out := make([]string, len(c.Variants))
	for i, v := range c.Variants {
		out[i] = v.Name
	}
	sort.Strings(out)
	return out
}
