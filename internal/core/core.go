// Package core is the XPDL processing tool of Section IV: it browses the
// model repository for all descriptors a concrete system model
// references, composes and resolves them (inheritance, parameters,
// groups, constraints), runs deployment-time microbenchmarks to derive
// attributes whose value is the "?" placeholder, performs static
// analysis (synthesized attributes, bandwidth downgrading, value
// filtering), and emits the light-weight runtime model file that the
// query API loads at application startup.
package core

import (
	"context"
	"fmt"
	"strconv"

	"xpdl/internal/analysis"
	"xpdl/internal/config"
	"xpdl/internal/energy"
	"xpdl/internal/microbench"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/resolve"
	"xpdl/internal/rtmodel"
	"xpdl/internal/simhw"
)

// Options configure one toolchain instance.
type Options struct {
	// SearchPaths are local model repository directories.
	SearchPaths []string
	// Remotes are base URLs of remote model libraries.
	Remotes []string
	// Fetch, when non-nil, tunes the repository's remote-fetch
	// robustness (retries, backoff, per-attempt timeouts, hedged
	// failover, on-disk descriptor cache). Nil selects
	// repo.DefaultFetchConfig.
	Fetch *repo.FetchConfig
	// RunMicrobenchmarks enables deployment-time calibration of "?"
	// energy attributes against the simulated hardware substrate.
	RunMicrobenchmarks bool
	// ForceMicrobench re-measures even instructions with given values
	// (Section III-C allows overriding specified costs on request).
	ForceMicrobench bool
	// Seed makes the simulated substrate deterministic.
	Seed int64
	// KeepUnknown retains "?" attributes in the runtime model instead of
	// filtering them out.
	KeepUnknown bool
	// PrefetchWorkers bounds the concurrency of repository prefetching.
	PrefetchWorkers int
	// Rules are the synthesized-attribute rules; nil selects
	// analysis.DefaultRules.
	Rules []analysis.SynthRule
	// Config, when non-nil, supplies the tailored filtering and
	// elicitation rules (Section IV: the tool is configurable). It
	// overrides KeepUnknown and Rules.
	Config *config.Config
	// Span, when non-nil, is the parent trace span under which Process
	// records one child span per pipeline phase (parse, fetch, resolve,
	// bootstrap, calibrate, analyze, emit). obs.Span is nil-safe, so a
	// nil Span disables tracing at zero cost.
	Span *obs.Span
}

// Toolchain is a configured XPDL processing tool.
type Toolchain struct {
	Repo *repo.Repository
	Opts Options
}

// New builds a toolchain over the configured repository paths.
func New(opts Options) (*Toolchain, error) {
	r, err := repo.New(opts.SearchPaths...)
	if err != nil {
		return nil, err
	}
	if opts.Fetch != nil {
		if err := r.SetFetchConfig(*opts.Fetch); err != nil {
			return nil, err
		}
	}
	for _, rem := range opts.Remotes {
		r.AddRemote(rem)
	}
	if opts.PrefetchWorkers <= 0 {
		opts.PrefetchWorkers = 8
	}
	return &Toolchain{Repo: r, Opts: opts}, nil
}

// Result is the outcome of processing one system model.
type Result struct {
	// System is the composed, analyzed instance tree.
	System *model.Component
	// Runtime is the light-weight runtime representation of System.
	Runtime *rtmodel.Model
	// Downgrades lists the interconnects whose bandwidth the static
	// analysis clamped.
	Downgrades []analysis.DowngradeReport
	// Microbench reports the calibration outcome (nil when disabled or
	// nothing to calibrate).
	Microbench *microbench.Report
	// Channels lists the interconnect channels whose "?" cost
	// parameters were derived by transfer microbenchmarking.
	Channels []ChannelCalibration
	// Stats summarizes the composed model.
	Stats analysis.Stats
	// Synthesized is the number of attributes written by the
	// attribute-grammar rules.
	Synthesized int
	// Filtered is the number of attributes dropped before emission.
	Filtered int
}

// Process composes the named concrete system model end to end. When
// Options.Span is set, each pipeline phase is recorded as a child span.
func (t *Toolchain) Process(systemID string) (*Result, error) {
	return t.ProcessContext(context.Background(), systemID)
}

// ProcessContext is Process with request-scoped tracing and
// cancellation: when ctx carries an active span (a traced xpdld
// request), the per-phase spans attach under it, so one trace links
// the HTTP request to the toolchain run and the repository fetches it
// triggers. A span in ctx takes precedence over Options.Span; with
// neither, tracing is free no-ops.
func (t *Toolchain) ProcessContext(ctx context.Context, systemID string) (*Result, error) {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		parent = t.Opts.Span
	}
	proc := parent.Start("process")
	proc.SetAttr("system", systemID)
	defer proc.Stop()

	sp := proc.Start("parse")
	root, err := t.Repo.LoadContext(obs.ContextWithSpan(ctx, sp), systemID)
	sp.Stop()
	if err != nil {
		return nil, err
	}
	// Warm the cache for all referenced submodels concurrently. Missing
	// leaf type tags are tolerated here; resolution decides what is
	// fatal.
	sp = proc.Start("fetch")
	refs := repo.ReferencedTypes(root)
	var present []string
	for _, r := range refs {
		if t.Repo.Has(r) {
			present = append(present, r)
		}
	}
	sp.SetAttr("refs", strconv.Itoa(len(present)))
	err = t.Repo.PrefetchContext(obs.ContextWithSpan(ctx, sp), present, t.Opts.PrefetchWorkers)
	sp.Stop()
	if err != nil {
		return nil, err
	}

	sp = proc.Start("resolve")
	system, err := resolve.New(t.Repo).ResolveSystem(systemID)
	sp.Stop()
	if err != nil {
		return nil, err
	}

	out := &Result{System: system}

	if t.Opts.RunMicrobenchmarks {
		sp = proc.Start("bootstrap")
		rep, err := t.bootstrap(system)
		sp.Stop()
		if err != nil {
			return nil, err
		}
		out.Microbench = rep
		sp = proc.Start("calibrate")
		chans, err := t.calibrateChannels(system)
		sp.SetAttr("channels", strconv.Itoa(len(chans)))
		sp.Stop()
		if err != nil {
			return nil, err
		}
		out.Channels = chans
	}

	sp = proc.Start("analyze")
	rules := t.Opts.Rules
	downgrade := true
	var filters []analysis.FilterRule
	if !t.Opts.KeepUnknown {
		filters = append(filters, analysis.DropUnknown)
	}
	if cfg := t.Opts.Config; cfg != nil {
		if len(cfg.Rules) > 0 {
			rules = cfg.Rules
		}
		downgrade = cfg.DowngradeBandwidth
		filters = cfg.FilterRules()
	}
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	out.Synthesized = analysis.Annotate(system, rules)
	if downgrade {
		out.Downgrades = analysis.DowngradeBandwidth(system)
	}
	if len(filters) > 0 {
		out.Filtered = analysis.Filter(system, filters...)
	}
	out.Stats = analysis.Summarize(system)
	sp.Stop()

	sp = proc.Start("emit")
	out.Runtime = rtmodel.Build(system)
	sp.SetAttr("nodes", strconv.Itoa(out.Runtime.Len()))
	sp.Stop()
	return out, nil
}

// bootstrap runs the microbenchmark suites for every instruction table
// found in the composed model, writing derived energies back into the
// tree so they reach the runtime model.
func (t *Toolchain) bootstrap(system *model.Component) (*microbench.Report, error) {
	var tables []*model.Component
	suites := map[string]*model.Component{}
	system.Walk(func(c *model.Component) bool {
		switch c.Kind {
		case "instructions":
			tables = append(tables, c)
		case "microbenchmarks":
			suites[c.Ident()] = c
			// An instance like <microbenchmarks id="e5_mb" type="mb_x86_base_1">
			// is also reachable by its meta name, which is what the
			// instructions table's mb= attribute references.
			if c.Type != "" {
				suites[c.Type] = c
			}
		}
		return true
	})
	if len(tables) == 0 {
		return nil, nil
	}
	machine := simhw.NewX86(t.Opts.Seed)
	runner := microbench.NewRunner(machine)
	var combined *microbench.Report
	for _, tc := range tables {
		tab, err := energy.TableFromComponent(tc)
		if err != nil {
			return nil, err
		}
		suiteComp := suites[tc.AttrRaw("mb")]
		if suiteComp == nil {
			// Fall back to any suite declaring this instruction set
			// (by instance id or by meta name).
			for _, s := range suites {
				set := s.AttrRaw("instruction_set")
				if set == tc.Ident() || (tc.Type != "" && set == tc.Type) {
					suiteComp = s
					break
				}
			}
		}
		if suiteComp == nil {
			if len(tab.Unknowns()) == 0 {
				continue // fully specified, nothing to derive
			}
			return nil, fmt.Errorf("core: instruction set %s has unknown energies but no microbenchmark suite", tc.Ident())
		}
		suite, err := microbench.SuiteFromComponent(suiteComp)
		if err != nil {
			return nil, err
		}
		rep, err := runner.Bootstrap(tab, suite, t.Opts.ForceMicrobench)
		if err != nil {
			return nil, err
		}
		if err := tab.WriteBack(tc); err != nil {
			return nil, err
		}
		if combined == nil {
			combined = rep
		} else {
			combined.PerInst = append(combined.PerInst, rep.PerInst...)
		}
	}
	return combined, nil
}

// ChannelCalibration records one channel whose cost parameters were
// derived at deployment time.
type ChannelCalibration struct {
	Interconnect string
	Channel      string
	Result       microbench.ChannelResult
}

// calibrateChannels runs transfer microbenchmarks for every interconnect
// channel that still carries "?" cost parameters (Listing 3) and fills
// the derived values into the model.
func (t *Toolchain) calibrateChannels(system *model.Component) ([]ChannelCalibration, error) {
	var out []ChannelCalibration
	runner := microbench.NewChannelRunner()
	seed := t.Opts.Seed
	var firstErr error
	system.Walk(func(c *model.Component) bool {
		if firstErr != nil {
			return false
		}
		if c.Kind != "interconnect" {
			return true
		}
		for _, ch := range c.ChildrenKind("channel") {
			if !microbench.UnknownChannelAttrs(ch) {
				continue
			}
			seed++
			link := microbench.LinkFromChannel(ch, seed)
			res, err := runner.Calibrate(link)
			if err != nil {
				firstErr = err
				return false
			}
			microbench.FillChannel(ch, res, false)
			out = append(out, ChannelCalibration{
				Interconnect: c.Ident(), Channel: ch.Name, Result: res,
			})
		}
		return true
	})
	return out, firstErr
}

// EmitRuntime writes the runtime model file for a processed system.
func (t *Toolchain) EmitRuntime(res *Result, path string) error {
	if res == nil || res.Runtime == nil {
		return fmt.Errorf("core: nothing to emit")
	}
	sp := t.Opts.Span.Start("write")
	defer sp.Stop()
	return res.Runtime.SaveFile(path)
}
