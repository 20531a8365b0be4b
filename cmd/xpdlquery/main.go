// Command xpdlquery loads a runtime model file written by xpdltool and
// answers introspection queries — the command-line face of the runtime
// query API (Section IV).
//
// The runtime model may also be fetched over HTTP(S) — useful when a
// deployment service publishes the composed model next to the
// descriptor library. The download uses the repository's retry/backoff
// policy so a flaky network does not fail the query:
//
//	xpdlquery -rt http://models.example.com/liu.xrt cores
//
// With -remote, the same commands are answered by a running xpdld
// daemon instead of a local runtime model; -rt then names the system
// model identifier. The output is byte-identical to the local path, so
// scripts can switch between the two transparently:
//
//	xpdlquery -remote http://localhost:8360 -rt liu_gpu_server cores
//
// Remote queries ride the daemon's binary protocol
// (application/x-xpdl-bin) by default — the answers are the same, the
// wire is cheaper. -proto json falls back to the JSON API, e.g. when
// talking to an older daemon.
//
// -watch streams the daemon's generation-change events for the model
// (one line per hot swap, noting whether it was a delta patch or a
// full resolve) until interrupted:
//
//	xpdlquery -remote http://localhost:8360 -rt liu_gpu_server -watch
//
// Usage:
//
//	xpdlquery -rt liu.xrt tree                # print the model tree
//	xpdlquery -rt liu.xrt cores               # derived core count
//	xpdlquery -rt liu.xrt cuda-devices        # CUDA device count
//	xpdlquery -rt liu.xrt static-power        # total static power (W)
//	xpdlquery -rt liu.xrt installed           # installed software list
//	xpdlquery -rt liu.xrt get gpu1 compute_capability
//	xpdlquery -rt liu.xrt eval "installed('CUBLAS') && num_cores() >= 4"
//	xpdlquery -rt liu.xrt select "//cache[name=L3]"
//	xpdlquery -rt liu.xrt json                # export the model as JSON
//	xpdlquery explain "//cache[name=L3]"      # show the compiled query plan
//
// explain needs no model: it compiles the selector and prints one line
// per segment with the strategy the executor uses (index lookups vs
// tree walks), so slow selectors can be diagnosed without a server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"xpdl/internal/expr"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	"xpdl/internal/serve"
	"xpdl/internal/units"
)

// selRow is one selector match: the fields both backends can print.
type selRow struct {
	Kind, Path string
}

// backend answers the query commands; the local implementation wraps
// an in-process query.Session, the remote one a running xpdld. Both
// must produce byte-identical command output.
type backend interface {
	Tree(w io.Writer) error
	Cores() (int, error)
	CUDADevices() (int, error)
	StaticPower() (units.Quantity, error)
	Installed() ([]string, error)
	// Get returns the printable value of one attribute: the quantity
	// rendering when the attribute has a normalized value, the raw
	// string otherwise.
	Get(ident, attr string) (string, error)
	JSON(w io.Writer) error
	Select(sel string) ([]selRow, error)
	// Eval returns the Go literal rendering of the expression value.
	Eval(src string) (string, error)
}

func main() {
	rt := flag.String("rt", "", "runtime model file (.xrt), http(s) URL, or — with -remote — a system model identifier")
	remote := flag.String("remote", "", "base URL of a running xpdld; queries are answered by the daemon")
	proto := flag.String("proto", "bin", `with -remote: wire protocol, "bin" (default) or "json"`)
	metrics := flag.Bool("metrics", false, "print the metrics registry (lookup/selector counters) after the command")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /debug/pprof and /debug/vars on this address while running")
	trace := flag.Bool("trace", false, "with -remote: send a sampled traceparent so the daemon records the request; the trace ID is printed to stderr")
	watch := flag.Bool("watch", false, "with -remote: stream generation-change events for the model (one line per event) until interrupted")
	flag.Parse()
	// explain is model-free: it only compiles the selector.
	if flag.NArg() > 0 && flag.Arg(0) == "explain" {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("explain needs one selector argument"))
		}
		p, err := query.Compile(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		fmt.Print(p.Describe())
		return
	}
	if *rt == "" || (flag.NArg() == 0 && !*watch) {
		fmt.Fprintln(os.Stderr, "xpdlquery: usage: xpdlquery [-remote http://host:port] -rt model.xrt <tree|cores|cuda-devices|static-power|installed|get id attr|eval expr|select sel|explain sel|json>")
		fmt.Fprintln(os.Stderr, "xpdlquery:        xpdlquery -remote http://host:port -rt <model> -watch")
		os.Exit(2)
	}
	if *obsAddr != "" {
		addr, shutdown, err := obs.Serve(*obsAddr)
		if err != nil {
			fail(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "xpdlquery: observability endpoints on http://%s\n", addr)
	}
	if *metrics {
		defer func() {
			fmt.Fprintln(os.Stderr, "metrics:")
			_ = obs.Default().WritePrometheus(os.Stderr)
		}()
	}
	var b backend
	if *remote != "" {
		var clientProto serve.Proto
		switch *proto {
		case "bin":
			clientProto = serve.ProtoBinary
		case "json":
			clientProto = serve.ProtoJSON
		default:
			fail(fmt.Errorf("-proto must be bin or json (got %q)", *proto))
		}
		ctx := context.Background()
		if *trace {
			// A client-side trace forces the daemon to record the request
			// (the sampled flag on the propagated traceparent wins over
			// the server's own sampling), and /debug/traces/<id> then
			// holds the full span tree: client → handler → store load →
			// toolchain phases → repository fetches.
			tr := obs.StartTrace("xpdlquery", obs.TraceContext{
				TraceID: obs.NewTraceID(),
				SpanID:  obs.NewSpanID(),
				Sampled: true,
			}, obs.SpanID{})
			ctx = obs.ContextWithTrace(ctx, tr)
			fmt.Fprintf(os.Stderr, "xpdlquery: trace %s (fetch %s/debug/traces/%s)\n",
				tr.Context().TraceID, *remote, tr.Context().TraceID)
		}
		client := serve.NewClient(*remote)
		client.Proto = clientProto
		if *watch {
			if err := watchRemote(ctx, client, *rt); err != nil {
				fail(err)
			}
			return
		}
		b = &remoteBackend{
			ctx:    ctx,
			client: client,
			model:  *rt,
		}
	} else {
		if *watch {
			fail(fmt.Errorf("-watch requires -remote (events come from a running xpdld)"))
		}
		path, err := localize(*rt)
		if err != nil {
			fail(err)
		}
		s, err := query.Init(path)
		if err != nil {
			fail(err)
		}
		b = &localBackend{s: s}
	}
	if err := run(b, os.Stdout, flag.Args()); err != nil {
		fail(err)
	}
}

// watchRemote streams generation-change events for one model from a
// running xpdld, one line per event, until the stream ends or the
// process is interrupted.
func watchRemote(ctx context.Context, client *serve.Client, model string) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := client.Watch(ctx, model, 0, func(ev serve.WatchEvent) error {
		how := "full"
		if ev.Delta {
			how = "delta"
		}
		line := fmt.Sprintf("%s seq=%d gen=%d via=%s fingerprint=%s",
			ev.Model, ev.Seq, ev.Generation, how, ev.Fingerprint)
		if len(ev.Changed) > 0 {
			line += " changed=" + strings.Join(ev.Changed, ",")
		}
		fmt.Println(line)
		return nil
	})
	if ctx.Err() != nil {
		return nil // interrupted: clean exit
	}
	return err
}

// run dispatches one command against a backend, writing to w.
func run(b backend, w io.Writer, args []string) error {
	switch cmd := args[0]; cmd {
	case "tree":
		return b.Tree(w)
	case "cores":
		n, err := b.Cores()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, n)
	case "cuda-devices":
		n, err := b.CUDADevices()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, n)
	case "static-power":
		q, err := b.StaticPower()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, q)
	case "installed":
		pkgs, err := b.Installed()
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			fmt.Fprintln(w, pkg)
		}
	case "get":
		if len(args) != 3 {
			return fmt.Errorf("get needs <ident> <attr>")
		}
		v, err := b.Get(args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, v)
	case "json":
		return b.JSON(w)
	case "select":
		if len(args) != 2 {
			return fmt.Errorf("select needs one selector argument")
		}
		rows, err := b.Select(args[1])
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%s\n", row.Kind, row.Path)
		}
	case "eval":
		text, err := b.Eval(strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, text)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// ---- local backend: in-process query session ----

type localBackend struct {
	s *query.Session
}

func (l *localBackend) Tree(w io.Writer) error       { return serve.WriteTree(w, l.s.Root()) }
func (l *localBackend) Cores() (int, error)          { return l.s.Root().NumCores(), nil }
func (l *localBackend) CUDADevices() (int, error)    { return l.s.Root().NumCUDADevices(), nil }
func (l *localBackend) Installed() ([]string, error) { return l.s.InstalledList(), nil }
func (l *localBackend) JSON(w io.Writer) error       { return l.s.Model().WriteJSON(w) }
func (l *localBackend) StaticPower() (units.Quantity, error) {
	return l.s.Root().TotalStaticPower(), nil
}

func (l *localBackend) Get(ident, attr string) (string, error) {
	e, ok := l.s.Find(ident)
	if !ok {
		return "", fmt.Errorf("element %q not found", ident)
	}
	if q, ok := e.GetQuantity(attr); ok {
		return q.String(), nil
	}
	if v, ok := e.GetString(attr); ok {
		return v, nil
	}
	return "", fmt.Errorf("element %q has no attribute %q", ident, attr)
}

func (l *localBackend) Select(sel string) ([]selRow, error) {
	elems, err := l.s.Select(sel)
	if err != nil {
		return nil, err
	}
	rows := make([]selRow, 0, len(elems))
	for _, e := range elems {
		rows = append(rows, selRow{Kind: e.Kind(), Path: e.Path()})
	}
	return rows, nil
}

func (l *localBackend) Eval(src string) (string, error) {
	v, err := expr.Eval(src, l.s.Env(nil))
	if err != nil {
		return "", err
	}
	return v.GoString(), nil
}

// ---- remote backend: a running xpdld ----

type remoteBackend struct {
	ctx    context.Context
	client *serve.Client
	model  string
}

func (r *remoteBackend) Tree(w io.Writer) error { return r.client.Tree(r.ctx, r.model, w) }
func (r *remoteBackend) JSON(w io.Writer) error { return r.client.JSON(r.ctx, r.model, w) }

func (r *remoteBackend) Cores() (int, error) {
	sum, err := r.client.Summary(r.ctx, r.model)
	if err != nil {
		return 0, err
	}
	return sum.Cores, nil
}

func (r *remoteBackend) CUDADevices() (int, error) {
	sum, err := r.client.Summary(r.ctx, r.model)
	if err != nil {
		return 0, err
	}
	return sum.CUDADevices, nil
}

func (r *remoteBackend) StaticPower() (units.Quantity, error) {
	sum, err := r.client.Summary(r.ctx, r.model)
	if err != nil {
		return units.Quantity{}, err
	}
	// The wire carries watts; the local path prints a power quantity.
	return units.Quantity{Value: sum.StaticPowerW, Dim: units.Power}, nil
}

func (r *remoteBackend) Installed() ([]string, error) {
	sum, err := r.client.Summary(r.ctx, r.model)
	if err != nil {
		return nil, err
	}
	return sum.Installed, nil
}

func (r *remoteBackend) Get(ident, attr string) (string, error) {
	e, err := r.client.Element(r.ctx, r.model, ident)
	if err != nil {
		return "", err
	}
	a, ok := e.Attrs[attr]
	if !ok {
		return "", fmt.Errorf("element %q has no attribute %q", ident, attr)
	}
	if a.Value != nil {
		return a.Display, nil
	}
	return a.Raw, nil
}

func (r *remoteBackend) Select(sel string) ([]selRow, error) {
	resp, err := r.client.Select(r.ctx, r.model, sel, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]selRow, 0, len(resp.Elements))
	for _, e := range resp.Elements {
		rows = append(rows, selRow{Kind: e.Kind, Path: e.Path})
	}
	return rows, nil
}

func (r *remoteBackend) Eval(src string) (string, error) {
	resp, err := r.client.Eval(r.ctx, r.model, src, nil)
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// localize makes the runtime model available as a local file: paths
// pass through, http(s) URLs are downloaded with the repository's
// retry/backoff policy into a temporary file.
func localize(rt string) (string, error) {
	if !strings.HasPrefix(rt, "http://") && !strings.HasPrefix(rt, "https://") {
		return rt, nil
	}
	body, err := repo.FetchURL(context.Background(), rt, repo.DefaultFetchConfig())
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp("", "xpdlquery-*"+filepath.Ext(rt))
	if err != nil {
		return "", err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return f.Name(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xpdlquery:", err)
	os.Exit(1)
}
