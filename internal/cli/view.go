package cli

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
)

// A view is one way of looking at the probes' observations. Each view is
// registered once, in views, and that entry serves both `pentiumbench
// <view> <ids|all>` and `GET /api/<view>/<id>`: the same id set, the
// same ObserveOpts and the same renderers.
type view struct {
	// ids lists the experiments the view covers; set names that list in
	// error messages.
	ids func() []string
	set string
	// window attaches the -window sampler to the probes; exemplarK is the
	// exemplar reservoir size used when -exemplars is 0.
	window    bool
	exemplarK int
	// observe runs the probes for the resolved ids.
	observe func(cfg core.Config, runner *core.Runner, ids []string, opts core.ObserveOpts) (*viewData, error)
	// formats holds the view's renderers by name; cli and api list the
	// formats each surface offers, default first, and a nil list means
	// the surface lacks the view. A surface offering one format ignores
	// -format and ?format=.
	formats  map[string]format
	cli, api []string
	// toFile makes the CLI write the rendering to -o when it is set.
	toFile bool
}

// format is one rendering of a view; contentType is what serve sends it
// as.
type format struct {
	contentType string
	render      func(w io.Writer, d *viewData) error
}

// viewData is what a renderer reads: the observation and the flags that
// shape its rendering.
type viewData struct {
	suite  *core.SuiteObservation
	audits []*core.AuditObservation
	opts   core.ObserveOpts
	// top is -top; outDir is -out and app creates its files, for the
	// renderers that write files of their own (serve offers none).
	top    int
	outDir string
	app    *App
}

const jsonType = "application/json"

// views is the observation surface.
var views = map[string]*view{
	"trace": {
		ids: core.ObservableIDs, set: "observable", observe: observeProbes,
		formats: map[string]format{
			"chrome": {jsonType, renderChrome},
			"text":   {"", renderTraceText},
		},
		cli: []string{"chrome", "text"}, api: []string{"chrome"},
	},
	"metrics": {
		ids: core.ObservableIDs, set: "observable", observe: observeProbes,
		formats: map[string]format{
			"table":      {"", renderMetricsTable},
			"prometheus": {"text/plain; version=0.0.4; charset=utf-8", renderPrometheus},
		},
		cli: []string{"table"}, api: []string{"prometheus"},
	},
	"timeseries": {
		ids: core.SampledIDs, set: "sampled", window: true, observe: observeProbes,
		formats: map[string]format{
			"csv":  {"", renderSeriesCSV},
			"json": {jsonType, renderSeriesJSON},
			"svg":  {"", renderTimelines},
		},
		cli: []string{"csv", "json", "svg"}, api: []string{"json"},
	},
	"profile": {
		ids: core.ObservableIDs, set: "observable", observe: observeProbes, toFile: true,
		formats: map[string]format{
			"top":    {"", func(w io.Writer, d *viewData) error { return d.suite.Profile.WriteTop(w, d.top) }},
			"folded": {"text/plain; charset=utf-8", func(w io.Writer, d *viewData) error { return d.suite.Profile.WriteFolded(w) }},
			"pprof":  {"application/octet-stream", func(w io.Writer, d *viewData) error { return d.suite.Profile.WritePprof(w) }},
		},
		cli: []string{"top", "folded", "pprof"}, api: []string{"folded", "pprof"},
	},
	"exemplars": {
		ids: core.ExemplarIDs, set: "exemplar-traced", window: true, exemplarK: 4, observe: observeProbes,
		formats: map[string]format{"json": {jsonType, renderExemplars}},
		api:     []string{"json"},
	},
	"audit": {
		ids: core.AuditableIDs, set: "auditable", window: true, observe: observeAudits,
		formats: map[string]format{
			"text":    {"", renderAuditText},
			"json":    {"", func(w io.Writer, d *viewData) error { return writeJSON(w, d.audits) }},
			"verdict": {jsonType, renderVerdicts},
		},
		cli: []string{"text", "json"}, api: []string{"verdict"},
	},
}

// opts is the ObserveOpts the view runs with under the given flags.
func (v *view) opts(o cmdOpts) core.ObserveOpts {
	opts := core.ObserveOpts{Procs: o.procs, Clients: o.clients, Nfsd: o.nfsd,
		Faults: o.faults, ExemplarK: o.exemplars}
	if v.window {
		opts.Window = o.window
	}
	if opts.ExemplarK == 0 {
		opts.ExemplarK = v.exemplarK
	}
	return opts
}

// pick resolves a requested format against the formats a surface of
// the named command offers: "" selects the default, and a surface with
// one format ignores the request.
func pick(name string, offered []string, req string) (string, error) {
	if req == "" || len(offered) == 1 {
		return offered[0], nil
	}
	if !slices.Contains(offered, req) {
		return "", fmt.Errorf("unknown %s format %q (want %s)", name, req,
			strings.Join(offered[:len(offered)-1], ", ")+" or "+offered[len(offered)-1])
	}
	return req, nil
}

// uncovered is the error for an id outside the view's set.
func (v *view) uncovered(id string) error {
	return fmt.Errorf("%q is not %s (%s: %v)", id, v.set, v.set, v.ids())
}

// resolve checks a command line's ids against the view's set; "all"
// selects the whole set.
func (v *view) resolve(name string, ids []string) ([]string, error) {
	covered := v.ids()
	switch {
	case len(ids) == 0:
		return nil, fmt.Errorf("%s needs experiment ids or 'all' (%s: %v)", name, v.set, covered)
	case len(ids) == 1 && ids[0] == "all":
		return covered, nil
	}
	for _, id := range ids {
		if !slices.Contains(covered, id) {
			return nil, v.uncovered(id)
		}
	}
	return ids, nil
}

// runView is `pentiumbench <name> <ids|all>`: resolve the format and the
// ids, observe, and render to stdout (or -o). Any failed audit makes the
// exit code 1.
func (a *App) runView(name string, cfg core.Config, runner *core.Runner, o cmdOpts, ids []string) int {
	v := views[name]
	fname, err := pick(name, v.cli, o.format)
	if err == nil {
		ids, err = v.resolve(name, ids)
	}
	var d *viewData
	if err == nil {
		d, err = v.observe(cfg, runner, ids, v.opts(o))
	}
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 2
	}
	d.top, d.outDir, d.app = o.top, o.outDir, a
	render := func(w io.Writer) error { return v.formats[fname].render(w, d) }
	if v.toFile && o.out != "" {
		if err = a.writeFile(o.out, render); err == nil {
			fmt.Fprintln(a.Stdout, "wrote", o.out)
		}
	} else {
		err = render(a.Stdout)
	}
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	for _, ao := range d.audits {
		if !ao.OK() {
			return 1
		}
	}
	return 0
}

// observeProbes runs the probes on the runner's pool.
func observeProbes(cfg core.Config, runner *core.Runner, ids []string, opts core.ObserveOpts) (*viewData, error) {
	suite, err := runner.Observe(cfg, ids, opts)
	if err != nil {
		return nil, err
	}
	return &viewData{suite: suite, opts: opts}, nil
}

// observeAudits audits each id in turn.
func observeAudits(cfg core.Config, _ *core.Runner, ids []string, opts core.ObserveOpts) (*viewData, error) {
	d := &viewData{opts: opts}
	for _, id := range ids {
		ao, err := core.Audit(cfg, id, opts)
		if err != nil {
			return nil, err
		}
		d.audits = append(d.audits, ao)
	}
	return d, nil
}

// writeFile creates path and fills it with write, returning the first
// error of the create, the write and the close.
func (a *App) writeFile(path string, write func(io.Writer) error) error {
	f, err := a.CreateFile(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
