// Command xpdlsweep runs scenario sweeps: it binds grids of model
// parameter values, evaluates a vector of objectives (static power,
// task energy/time, transfer cost, arbitrary expressions) at every
// legal point, and reports the Pareto front over the results — the
// design-space exploration workflow the XPDL paper motivates (compare
// shared-memory/L1 splits, frequency settings, replication counts)
// driven from one JSON spec.
//
// The sweep spec is a JSON document (see the README's "Scenario
// sweeps" section):
//
//	{
//	  "params": [
//	    {"name": "L1size",  "target": "gpu1", "unit": "KB", "values": ["16", "32", "48"]},
//	    {"name": "shmsize", "target": "gpu1", "unit": "KB", "values": ["16", "32", "48"]}
//	  ],
//	  "objectives": [
//	    {"name": "static_w", "kind": "static_power"},
//	    {"name": "shm", "expr": "shmsize", "sense": "max"}
//	  ]
//	}
//
// Local mode resolves every point in-process against a descriptor
// repository:
//
//	xpdlsweep -models models -spec sweep.json liu_gpu_server
//
// With -remote, the sweep is submitted to a running xpdld as an async
// job; progress events stream back per point and the command waits for
// the terminal state:
//
//	xpdlsweep -remote http://localhost:8360 -spec sweep.json liu_gpu_server
//
// Either way the output is the same: a summary line, the Pareto front
// as a table (or the full result as JSON with -json). Point sets and
// fronts are deterministic — identical across runs, worker counts, and
// local vs remote execution.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"

	"xpdl/internal/repo"
	"xpdl/internal/scenario"
	"xpdl/internal/serve"
)

func main() {
	var (
		models   = flag.String("models", "models", "comma-separated local model repository directories")
		remote   = flag.String("remote", "", "base URL of a running xpdld; the sweep runs there as an async job")
		specPath = flag.String("spec", "", `sweep spec JSON file ("-" = stdin)`)
		workers  = flag.Int("workers", 0, "local mode: concurrent point evaluations (0 = GOMAXPROCS)")
		full     = flag.Bool("full-resolve", false, "force the full composition pipeline per point (disable the re-bind fast path)")
		jsonOut  = flag.Bool("json", false, "print the full result as JSON instead of the front table")
		points   = flag.Bool("points", false, "with -json: include every point, not just the front")
		quiet    = flag.Bool("quiet", false, "suppress per-point progress on stderr")
	)
	flag.Parse()
	if flag.NArg() != 1 || *specPath == "" {
		fmt.Fprintln(os.Stderr, "xpdlsweep: usage: xpdlsweep -spec sweep.json [-models dirs | -remote http://host:port] <system-model>")
		os.Exit(2)
	}
	system := flag.Arg(0)

	spec, err := readSpec(*specPath)
	if err != nil {
		fail(err)
	}
	if *full {
		spec.FullResolve = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *scenario.Result
	if *remote != "" {
		res, err = runRemote(ctx, *remote, system, spec, *quiet)
	} else {
		res, err = runLocal(ctx, *models, system, spec, *workers, *quiet)
	}
	if err != nil {
		fail(err)
	}
	if err := report(os.Stdout, res, *jsonOut, *points); err != nil {
		fail(err)
	}
}

func readSpec(path string) (*scenario.Spec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec scenario.Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

func runLocal(ctx context.Context, models, system string, spec *scenario.Spec, workers int, quiet bool) (*scenario.Result, error) {
	rp, err := repo.New(splitList(models)...)
	if err != nil {
		return nil, err
	}
	eng := &scenario.Engine{Repo: rp, Workers: workers}
	if !quiet {
		eng.OnPoint = progress(os.Stderr)
	}
	return eng.Run(ctx, system, spec)
}

func runRemote(ctx context.Context, base, system string, spec *scenario.Spec, quiet bool) (*scenario.Result, error) {
	c := serve.NewClient(base)
	acc, err := c.Sweep(ctx, system, *spec)
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "xpdlsweep: job %s accepted (%d points)\n", acc.Job, acc.Total)
	}
	onPoint := progress(os.Stderr)
	// JobStream resumes dropped streams itself and returns nil only
	// after the terminal event.
	if err := c.JobStream(ctx, acc.Job, 0, func(ev serve.JobEvent) error {
		if ev.Type == "point" && ev.Point != nil && !quiet {
			onPoint(*ev.Point)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	info, err := c.JobStatus(ctx, acc.Job, true)
	if err != nil {
		return nil, err
	}
	switch info.State {
	case serve.JobStateDone:
		return info.Result, nil
	case serve.JobStateCanceled:
		return nil, fmt.Errorf("job %s canceled", acc.Job)
	default:
		return nil, fmt.Errorf("job %s %s: %s", acc.Job, info.State, info.Error)
	}
}

// progress returns a serialized-by-caller per-point reporter. Points
// arrive in completion order; the final tables are grid-ordered.
func progress(w io.Writer) func(scenario.PointResult) {
	return func(p scenario.PointResult) {
		switch {
		case p.Skipped:
			fmt.Fprintf(w, "point %d skipped: %s\n", p.Index, p.Reason)
		case p.Failed:
			fmt.Fprintf(w, "point %d FAILED: %s\n", p.Index, p.Reason)
		default:
			fmt.Fprintf(w, "point %d ok %s\n", p.Index, paramString(p.Params))
		}
	}
}

func report(w io.Writer, res *scenario.Result, asJSON, withPoints bool) error {
	if asJSON {
		out := *res
		if !withPoints {
			front := res.FrontPoints()
			out.Points = front
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&out)
	}
	mode := "fast path"
	if !res.FastPath {
		mode = "full resolve"
	}
	fmt.Fprintf(w, "%s: %d points (%d evaluated, %d skipped, %d failed) via %s\n",
		res.System, res.Total, res.Evaluated, res.Skipped, res.Failed, mode)
	front := res.FrontPoints()
	if len(front) == 0 {
		fmt.Fprintln(w, "Pareto front: empty (no evaluated points)")
		return nil
	}
	fmt.Fprintf(w, "Pareto front (%d of %d evaluated):\n", len(front), res.Evaluated)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"index", "params"}
	for i, n := range res.ObjectiveNames {
		header = append(header, fmt.Sprintf("%s(%s)", n, res.Senses[i]))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, p := range front {
		row := []string{fmt.Sprint(p.Index), paramString(p.Params)}
		for _, v := range p.Objectives {
			row = append(row, fmt.Sprintf("%g", v))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// paramString renders a point's bindings deterministically.
func paramString(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+params[k])
	}
	return strings.Join(parts, " ")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xpdlsweep:", err)
	os.Exit(1)
}
