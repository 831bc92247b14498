package cli

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// A view is one way of looking at the probes' observations. Each view is
// registered once, in views, and that entry serves both `pentiumbench
// <view> <ids|all>` and `GET /api/<view>/<id>`: the same id set, the
// same ObserveOpts, the same projection of the observed runs and the
// same renderers.
type view struct {
	// ids lists the experiments the view covers; set names that list in
	// error messages.
	ids func() []string
	set string
	// window attaches the -window sampler to the probes; exemplarK is the
	// exemplar reservoir size used when -exemplars is 0; defaults, when
	// set, fills in what the view's observation defaults.
	window    bool
	exemplarK int
	defaults  func(core.ObserveOpts) core.ObserveOpts
	// series marks a view that renders the runs' series: it refuses a run
	// that outgrew the sampler's window budget.
	series bool
	// project makes the view's data from runs that core.Covers it: the
	// CLI's runs of the resolved ids, observed under the view's options,
	// or serve's shared run of one id (see exhibit).
	project func(runs []*core.Observation, st *core.RunStats, opts core.ObserveOpts) (*viewData, error)
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
		ids: core.ObservableIDs, set: "observable", project: projectProbes,
		formats: map[string]format{
			"chrome": {jsonType, renderChrome},
			"text":   {"", renderTraceText},
		},
		cli: []string{"chrome", "text"}, api: []string{"chrome"},
	},
	"metrics": {
		ids: core.ObservableIDs, set: "observable", project: projectProbes,
		formats: map[string]format{
			"table":      {"", renderMetricsTable},
			"prometheus": {"text/plain; version=0.0.4; charset=utf-8", renderPrometheus},
		},
		cli: []string{"table"}, api: []string{"prometheus"},
	},
	"timeseries": {
		ids: core.SampledIDs, set: "sampled", window: true, series: true, project: projectProbes,
		formats: map[string]format{
			"csv":  {"", renderSeriesCSV},
			"json": {jsonType, renderSeriesJSON},
			"svg":  {"", renderTimelines},
		},
		cli: []string{"csv", "json", "svg"}, api: []string{"json"},
	},
	"profile": {
		ids: core.ObservableIDs, set: "observable", project: projectProfiles, toFile: true,
		formats: map[string]format{
			"top":    {"", func(w io.Writer, d *viewData) error { return d.suite.Profile.WriteTop(w, d.top) }},
			"folded": {"text/plain; charset=utf-8", func(w io.Writer, d *viewData) error { return d.suite.Profile.WriteFolded(w) }},
			"pprof":  {"application/octet-stream", func(w io.Writer, d *viewData) error { return d.suite.Profile.WritePprof(w) }},
		},
		cli: []string{"top", "folded", "pprof"}, api: []string{"folded", "pprof"},
	},
	"exemplars": {
		ids: core.ExemplarIDs, set: "exemplar-traced", window: true, exemplarK: 4, project: projectProbes,
		formats: map[string]format{"json": {jsonType, renderExemplars}},
		api:     []string{"json"},
	},
	"audit": {
		ids: core.AuditableIDs, set: "auditable", window: true, defaults: core.AuditOpts, project: projectAudits,
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
	if v.defaults != nil {
		opts = v.defaults(opts)
	}
	return opts
}

// projectFor makes the view's data under the flags from runs that cover
// it.
func (v *view) projectFor(runs []*core.Observation, st *core.RunStats, o cmdOpts) (*viewData, error) {
	d, err := v.project(runs, st, v.opts(o))
	return d, v.refuse(d, err)
}

// refuse passes on err, or refuses data that a series view cannot
// render: series that outgrew the sampler's window budget, which an
// audit refuses too. The refusal names -window, the budget and the
// narrowest width that fits.
func (v *view) refuse(d *viewData, err error) error {
	if err == nil && v.series {
		err = overflow(d.suite)
	}
	var be *obs.BudgetError
	if errors.As(err, &be) {
		return fmt.Errorf("-window %v needs %d windows for this run, past the sampler's budget of %d; the narrowest -window that fits is %v",
			be.Width, be.Need, obs.WindowBudget, be.Fit)
	}
	return err
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
// ids, observe them once under the view's options, and render the
// view's projection to stdout (or -o), as serve renders a shared run.
// Any failed audit makes the exit code 1.
func (a *App) runView(name string, cfg core.Config, runner *core.Runner, o cmdOpts, ids []string) int {
	v := views[name]
	fname, err := pick(name, v.cli, o.format)
	if err == nil {
		ids, err = v.resolve(name, ids)
	}
	var runs []*core.Observation
	var st *core.RunStats
	if err == nil {
		runs, st, err = runner.ObserveRuns(cfg, ids, v.opts(o))
	}
	var d *viewData
	if err == nil {
		d, err = v.projectFor(runs, st, o)
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

// overflow is the budget error of the first run whose series outgrew
// the sampler's window budget, or nil.
func overflow(suite *core.SuiteObservation) error {
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			if run.Series != nil && run.Series.Overflow != nil {
				return run.Series.Overflow
			}
		}
	}
	return nil
}

// projectProbes is the runs as the view sees them, merged as
// Runner.Observe merges.
func projectProbes(runs []*core.Observation, st *core.RunStats, opts core.ObserveOpts) (*viewData, error) {
	return &viewData{suite: core.Suite(project(runs, opts, false), st), opts: opts}, nil
}

// projectProfiles is projectProbes for a view that reads the profile:
// the projections are folded first.
func projectProfiles(runs []*core.Observation, st *core.RunStats, opts core.ObserveOpts) (*viewData, error) {
	return &viewData{suite: core.Suite(project(runs, opts, true), st), opts: opts}, nil
}

// project is each observation as a view observed under opts shows it,
// folded when fold is set.
func project(runs []*core.Observation, opts core.ObserveOpts, fold bool) []*core.Observation {
	out := make([]*core.Observation, len(runs))
	for i, o := range runs {
		out[i] = o.Project(opts)
		if fold {
			out[i].Fold()
		}
	}
	return out
}

// projectAudits is the verdicts the runs carry.
func projectAudits(runs []*core.Observation, _ *core.RunStats, opts core.ObserveOpts) (*viewData, error) {
	audits := make([]*core.AuditObservation, len(runs))
	for i, o := range runs {
		ao, err := o.Audit()
		if err != nil {
			return nil, err
		}
		audits[i] = ao
	}
	return &viewData{audits: audits, opts: opts}, nil
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
