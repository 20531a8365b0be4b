package scenario

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"xpdl/internal/analysis"
	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/resolve"
	"xpdl/internal/units"
)

// Sweep metrics in the process-wide registry.
var (
	mSweeps = obs.Default().Counter("xpdl_sweep_runs_total",
		"Scenario sweeps executed.")
	mPoints = obs.Default().Counter("xpdl_sweep_points_total",
		"Sweep points processed (evaluated, skipped and failed).")
	mPointsSkipped = obs.Default().Counter("xpdl_sweep_points_skipped_total",
		"Sweep points skipped because the configuration violates a constraint or range.")
	mPointsFailed = obs.Default().Counter("xpdl_sweep_points_failed_total",
		"Sweep points that failed to resolve or evaluate.")
	mPointsFast = obs.Default().Counter("xpdl_sweep_fastpath_points_total",
		"Sweep points evaluated by re-binding the resolved base tree.")
	mPointsFull = obs.Default().Counter("xpdl_sweep_fullresolve_points_total",
		"Sweep points evaluated by a full composition run.")
)

// PointResult is one evaluated grid point.
type PointResult struct {
	// Index is the point's position in the full grid enumeration
	// (stable across runs, worker counts and sampling).
	Index int `json:"index"`
	// Params maps each axis alias to the value bound at this point.
	Params map[string]string `json:"params"`
	// Derived holds the derived-expression values.
	Derived map[string]float64 `json:"derived,omitempty"`
	// Objectives is the objective vector, in spec order. Nil when the
	// point was skipped or failed.
	Objectives []float64 `json:"objectives,omitempty"`
	// Skipped marks constraint/range violations — illegal
	// configurations are an expected part of grid exploration, counted
	// but not fatal.
	Skipped bool `json:"skipped,omitempty"`
	// Failed marks resolution or evaluation errors.
	Failed bool `json:"failed,omitempty"`
	// Reason explains Skipped/Failed.
	Reason string `json:"reason,omitempty"`
}

// Result is a completed sweep.
type Result struct {
	// System is the swept model identifier.
	System string `json:"system"`
	// ObjectiveNames and Senses describe the objective vector.
	ObjectiveNames []string `json:"objectiveNames"`
	Senses         []string `json:"senses"`
	// Points holds every enumerated point in grid order.
	Points []PointResult `json:"points"`
	// Front lists the Pareto-optimal points by Index, ascending.
	Front []int `json:"front"`
	// Totals.
	Total     int `json:"total"`
	Evaluated int `json:"evaluated"`
	Skipped   int `json:"skipped"`
	Failed    int `json:"failed"`
	// FastPath reports whether points were evaluated by re-binding the
	// resolved base tree instead of full per-point composition.
	FastPath bool `json:"fastPath"`
}

// FrontPoints returns the Pareto-front points themselves.
func (r *Result) FrontPoints() []PointResult {
	byIndex := map[int]int{}
	for i := range r.Points {
		byIndex[r.Points[i].Index] = i
	}
	out := make([]PointResult, 0, len(r.Front))
	for _, idx := range r.Front {
		if i, ok := byIndex[idx]; ok {
			out = append(out, r.Points[i])
		}
	}
	return out
}

// Engine runs sweeps against a descriptor repository.
type Engine struct {
	// Repo supplies the concrete model and its meta-models; required.
	Repo *repo.Repository
	// Workers bounds concurrent point evaluations (default 1). Results
	// are identical for any worker count: workers only change
	// completion order, never point content.
	Workers int
	// OnPoint, when set, receives every point result as it completes
	// (completion order, not grid order). Calls are serialized.
	OnPoint func(PointResult)
}

// Run executes the sweep and returns the complete result. The same
// (model, spec) pair always produces the same Result — the engine is
// deterministic across runs, worker counts and fast-path choice.
func (e *Engine) Run(ctx context.Context, system string, spec *Spec) (*Result, error) {
	if e.Repo == nil {
		return nil, fmt.Errorf("scenario: Engine.Repo is required")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	loaded, err := e.Repo.LoadContext(ctx, system)
	if err != nil {
		return nil, err
	}
	// The repository shares cached descriptors; never mutate them.
	concrete := loaded.Clone()
	if err := verifyTargets(concrete, spec); err != nil {
		return nil, err
	}
	axes, err := spec.axes()
	if err != nil {
		return nil, err
	}
	indices, err := spec.Enumerate()
	if err != nil {
		return nil, err
	}
	mSweeps.Inc()

	res := &Result{
		System: system,
		Points: make([]PointResult, len(indices)),
		Total:  len(indices),
		Front:  []int{},
	}
	for i := range spec.Objectives {
		res.ObjectiveNames = append(res.ObjectiveNames, spec.Objectives[i].Name)
		res.Senses = append(res.Senses, spec.Objectives[i].sense())
	}

	rr := resolve.New(e.Repo)

	var onPointMu sync.Mutex
	emit := func(pos int, pr PointResult) {
		res.Points[pos] = pr
		mPoints.Inc()
		switch {
		case pr.Skipped:
			mPointsSkipped.Inc()
		case pr.Failed:
			mPointsFailed.Inc()
		}
		if e.OnPoint != nil {
			onPointMu.Lock()
			e.OnPoint(pr)
			onPointMu.Unlock()
		}
	}

	// Resolve points in grid order until one succeeds: its resolved
	// (pre-analysis) tree becomes the re-bind base. Points before it
	// are recorded as skipped/failed.
	var baseTree *model.Component
	basePos := -1
	for pos, idx := range indices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ovs := overridesFor(spec, pointValues(axes, idx))
		tree, rerr := resolvePoint(rr, concrete, ovs)
		if rerr != nil {
			emit(pos, failedPoint(spec, axes, idx, rerr))
			continue
		}
		baseTree = tree.Clone() // pristine: analysis mutates the tree
		pr := evalPoint(spec, axes, idx, tree)
		emit(pos, pr)
		basePos = pos
		mPointsFull.Inc()
		break
	}

	if basePos >= 0 && basePos+1 < len(indices) {
		rest := indices[basePos+1:]
		fast := e.fastPathEligible(spec, concrete, rr)
		res.FastPath = fast
		workers := e.Workers
		if workers < 1 {
			workers = 1
		}
		if workers > len(rest) {
			workers = len(rest)
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		jobs := make(chan int, len(rest))
		for off := range rest {
			jobs <- off
		}
		close(jobs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Full-path workers fork the warmed resolver; forks are
				// serial and independent, so point content cannot depend
				// on scheduling.
				view := rr.Fork()
				for off := range jobs {
					if runCtx.Err() != nil {
						return
					}
					pos := basePos + 1 + off
					idx := rest[off]
					ovs := overridesFor(spec, pointValues(axes, idx))
					var pr PointResult
					if fast {
						tree := baseTree.Clone()
						if rerr := resolve.Rebind(tree, ovs); rerr != nil {
							pr = failedPoint(spec, axes, idx, rerr)
						} else {
							pr = evalPoint(spec, axes, idx, tree)
							mPointsFast.Inc()
						}
					} else {
						tree, rerr := resolvePoint(view, concrete, ovs)
						if rerr != nil {
							pr = failedPoint(spec, axes, idx, rerr)
						} else {
							pr = evalPoint(spec, axes, idx, tree)
							mPointsFull.Inc()
						}
					}
					emit(pos, pr)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	for i := range res.Points {
		switch {
		case res.Points[i].Skipped:
			res.Skipped++
		case res.Points[i].Failed:
			res.Failed++
		default:
			res.Evaluated++
		}
	}
	for _, i := range Front(res.Points, res.Senses) {
		res.Front = append(res.Front, res.Points[i].Index)
	}
	return res, nil
}

// fastPathEligible decides whether the remaining points may be
// re-bound onto the base tree: no structural (quantity) overrides, no
// swept name inside any group quantity expression (concrete root or
// flattened meta), and every axis value numeric (string substitution
// erases the parameter reference rebinding needs).
func (e *Engine) fastPathEligible(spec *Spec, concrete *model.Component, rr *resolve.Resolver) bool {
	if spec.FullResolve {
		return false
	}
	names := map[string]bool{}
	for i := range spec.Params {
		p := &spec.Params[i]
		if p.Name == "quantity" {
			return false
		}
		names[p.Name] = true
		ax, err := p.axis()
		if err != nil {
			return false
		}
		for _, v := range ax {
			if !numericBinding(v, p.Unit) {
				return false
			}
		}
	}
	trees := append([]*model.Component{concrete}, rr.FlattenedMetas()...)
	return !resolve.StructureSensitive(names, trees...)
}

// numericBinding mirrors the resolver's binding normalization: a value
// is numeric when units.Parse accepts it with its unit, or when it
// parses as a bare float.
func numericBinding(raw, unit string) bool {
	if unit != "" {
		if _, err := units.Parse(raw, unit); err == nil {
			return true
		}
	}
	_, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	return err == nil
}

// overridesFor builds the resolver overrides of one point.
func overridesFor(spec *Spec, values []string) []resolve.Override {
	ovs := make([]resolve.Override, len(spec.Params))
	for i := range spec.Params {
		ovs[i] = resolve.Override{
			Target: spec.Params[i].Target,
			Name:   spec.Params[i].Name,
			Value:  values[i],
			Unit:   spec.Params[i].Unit,
		}
	}
	return ovs
}

// resolvePoint runs the full composition path for one point: clone the
// concrete tree, apply the bindings, instantiate.
func resolvePoint(rr *resolve.Resolver, concrete *model.Component, ovs []resolve.Override) (*model.Component, error) {
	cl := concrete.Clone()
	if err := resolve.ApplyOverrides(cl, ovs); err != nil {
		return nil, err
	}
	return rr.Instantiate(cl)
}

// evalPoint runs the shared post-resolution pipeline — static
// analysis, derived expressions, objectives — identically on both
// resolution paths, so their float results match bit for bit.
func evalPoint(spec *Spec, axes [][]string, idx int, tree *model.Component) PointResult {
	analysis.Annotate(tree, analysis.DefaultRules())
	analysis.DowngradeBandwidth(tree)
	analysis.Filter(tree, analysis.DropUnknown)

	pr := PointResult{Index: idx, Params: paramsOf(spec, axes, idx)}
	env := &pointEnv{vals: map[string]expr.Value{}, tree: tree}
	values := pointValues(axes, idx)
	for i := range spec.Params {
		env.vals[spec.Params[i].Key()] = bindingValueOf(values[i], spec.Params[i].Unit)
	}
	if len(spec.Derived) > 0 {
		pr.Derived = map[string]float64{}
		for i := range spec.Derived {
			d := &spec.Derived[i]
			v, err := expr.Eval(d.Expr, env)
			if err != nil {
				return failWith(pr, fmt.Sprintf("derived %s: %v", d.Name, err))
			}
			if v.Kind != expr.KindNumber {
				return failWith(pr, fmt.Sprintf("derived %s: not a number (%s)", d.Name, v.GoString()))
			}
			env.vals[d.Name] = v
			pr.Derived[d.Name] = v.Num
		}
	}
	pr.Objectives = make([]float64, len(spec.Objectives))
	for i := range spec.Objectives {
		v, err := evalObjective(&spec.Objectives[i], tree, env)
		if err != nil {
			return failWith(pr, err.Error())
		}
		pr.Objectives[i] = v
	}
	return pr
}

func failWith(pr PointResult, reason string) PointResult {
	pr.Derived, pr.Objectives = nil, nil
	pr.Failed, pr.Reason = true, reason
	return pr
}

// bindingValueOf normalizes a sweep value exactly like a descriptor
// binding: unit-qualified values normalize to base units, bare numbers
// stay plain, anything else is a string.
func bindingValueOf(raw, unit string) expr.Value {
	if unit != "" {
		if q, err := units.Parse(raw, unit); err == nil {
			return expr.Number(q.Value)
		}
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64); err == nil {
		return expr.Number(f)
	}
	return expr.String(raw)
}

// failedPoint classifies a resolution error: constraint/range
// violations are skipped (expected while exploring), everything else
// failed.
func failedPoint(spec *Spec, axes [][]string, idx int, err error) PointResult {
	pr := PointResult{Index: idx, Params: paramsOf(spec, axes, idx), Reason: err.Error()}
	var re *resolve.Error
	if errors.As(err, &re) && re.Violation {
		pr.Skipped = true
	} else {
		pr.Failed = true
	}
	return pr
}

func paramsOf(spec *Spec, axes [][]string, idx int) map[string]string {
	values := pointValues(axes, idx)
	out := make(map[string]string, len(spec.Params))
	for i := range spec.Params {
		out[spec.Params[i].Key()] = values[i]
	}
	return out
}

// verifyTargets checks every axis addresses at least one component of
// the concrete tree (the tree the full path binds on; replicas in the
// resolved tree inherit from it).
func verifyTargets(concrete *model.Component, spec *Spec) error {
	for i := range spec.Params {
		p := &spec.Params[i]
		found := false
		isRoot := true
		var walk func(c *model.Component)
		walk = func(c *model.Component) {
			root := isRoot
			isRoot = false
			if found {
				return
			}
			if matchesTarget(c, p, root) {
				found = true
				return
			}
			for _, ch := range c.Children {
				walk(ch)
			}
		}
		walk(concrete)
		if !found {
			target := p.Target
			if target == "" {
				target = "<root>"
			}
			return fmt.Errorf("scenario: parameter %s: target %q matches no component in %s", p.Key(), target, concrete.Ident())
		}
	}
	return nil
}

func matchesTarget(c *model.Component, p *ParamSpec, isRoot bool) bool {
	match := false
	if p.Target == "" {
		match = isRoot
	} else if c.Ident() == p.Target {
		match = true
	} else if c.Kind == "group" && c.Ident() == "" && c.Prefix == p.Target {
		match = true
	}
	if !match {
		return false
	}
	if p.Name == "quantity" {
		return c.Kind == "group"
	}
	return true
}
