package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestTimeseriesCSV(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"-clients", "2000", "timeseries", "F1", "S1"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	text := out.String()
	if !strings.HasPrefix(text, "experiment,system,series,t_ns,value\n") {
		t.Fatalf("csv header missing:\n%.120s", text)
	}
	for _, want := range []string{
		"F1,Linux 1.2.8,kernel.switches,", "S1,Solaris 2.4,nfs.arrivals,",
		"nfs.latency_ns.p99", "kernel.runnable",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("csv missing %q", want)
		}
	}
}

func TestTimeseriesJSON(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"timeseries", "F12", "-format", "json"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	for _, want := range []string{`"experiment": "F12"`, `"width_ns"`, `"disk.ops"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("json missing %q:\n%.300s", want, out.String())
		}
	}
}

func TestTimeseriesSVGWritesTimelines(t *testing.T) {
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"-out", "figs", "timeseries", "F1", "-format", "svg"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	b, ok := files["figs/timeline-F1.svg"]
	if !ok {
		t.Fatalf("timeline SVG not written; files: %v", keysOf(files))
	}
	svg := b.String()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "kernel.switches") {
		t.Fatalf("timeline malformed:\n%.300s", svg)
	}
}

// A saturated lossy run must shade its overload windows and label the
// virtual-time axis; a clean kernel probe must shade nothing.
func TestTimeseriesSVGOverloadShadingAndTicks(t *testing.T) {
	a, _, errb, files := testApp()
	if plan, err := os.ReadFile("../../examples/scale-lossy.json"); err == nil {
		files["scale-lossy.json"] = bytes.NewBuffer(plan)
	}
	args := []string{"-out", "figs", "-clients", "2000", "-faults", "scale-lossy.json",
		"timeseries", "S1", "-format", "svg"}
	if code := a.Execute(args); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	b, ok := files["figs/timeline-S1.svg"]
	if !ok {
		t.Fatalf("timeline SVG not written; files: %v", keysOf(files))
	}
	svg := b.String()
	for _, want := range []string{
		`fill="#d62728" fill-opacity="0.13"`, // overload shading
		"overloaded windows (queue full or sheds)",
		" virtual</text>",      // axis-end label
		`text-anchor="middle"`, // interior virtual-time ticks
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("lossy timeline missing %q:\n%.400s", want, svg)
		}
	}

	// The clean kernel probe has no overload series: no shading.
	a2, _, errb2, files2 := testApp()
	if code := a2.Execute([]string{"-out", "figs", "timeseries", "F1", "-format", "svg"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb2.String())
	}
	if strings.Contains(files2["figs/timeline-F1.svg"].String(), "overloaded windows") {
		t.Fatal("clean run shaded overload windows")
	}
}

func keysOf(m map[string]*bytes.Buffer) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTimeseriesArgErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no ids", []string{"timeseries"}, "sampled:"},
		{"unsampled id", []string{"timeseries", "T2"}, "T2"},
		{"unknown id", []string{"timeseries", "F99"}, "F99"},
		{"bad window", []string{"-window", "0s", "timeseries", "F1"}, "-window"},
		{"bad format", []string{"timeseries", "F1", "-format", "yaml"}, "yaml"},
	}
	for _, tc := range cases {
		a, _, errb, _ := testApp()
		if code := a.Execute(tc.args); code != 2 {
			t.Fatalf("%s: exit = %d, want 2", tc.name, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr missing %q: %s", tc.name, tc.want, errb.String())
		}
	}
}

// timeseriesOut runs one timeseries invocation and returns its stdout.
func timeseriesOut(t *testing.T, args []string) string {
	t.Helper()
	a, out, errb, files := testApp()
	if plan, err := os.ReadFile("../../examples/scale-lossy.json"); err == nil {
		files["scale-lossy.json"] = bytes.NewBuffer(plan)
	}
	if code := a.Execute(args); code != 0 {
		t.Fatalf("%v: exit = %d: %s", args, code, errb.String())
	}
	return out.String()
}

// The tentpole determinism guarantee: the sampler's output is
// byte-identical at any worker count, with and without fault injection.
func TestTimeseriesIdenticalAcrossWorkers(t *testing.T) {
	base := []string{"-clients", "2000", "timeseries", "all", "-format", "csv"}
	serial := timeseriesOut(t, append([]string{"-j", "1"}, base...))
	parallel := timeseriesOut(t, append([]string{"-j", "8"}, base...))
	if serial != parallel {
		t.Fatal("-j 8 timeseries output differs from -j 1")
	}
	if !strings.Contains(serial, "nfs.queue_depth") {
		t.Fatalf("expected sampled series in output:\n%.200s", serial)
	}
}

func TestTimeseriesIdenticalAcrossWorkersWithFaults(t *testing.T) {
	base := []string{"-clients", "2000", "-faults", "scale-lossy.json",
		"timeseries", "S1", "S2", "-format", "json"}
	serial := timeseriesOut(t, append([]string{"-j", "1"}, base...))
	parallel := timeseriesOut(t, append([]string{"-j", "8"}, base...))
	if serial != parallel {
		t.Fatal("-j 8 faulted timeseries output differs from -j 1")
	}
	if !strings.Contains(serial, "fault.rpc_drops") {
		t.Fatalf("lossy plan should surface fault.rpc_drops:\n%.300s", serial)
	}
}

// Under -exemplars with a -window other than 100 ms, the trace's request
// tracks are the exemplars the series carry, system by system: every
// view's reservoir keeps -window-wide windows.
func TestTraceRequestsAreTheSeriesExemplars(t *testing.T) {
	flags := []string{"-exemplars", "4", "-window", "50ms"}
	var events []struct {
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Name string `json:"name"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	}
	trace := timeseriesOut(t, append(flags, "trace", "S1"))
	if err := json.Unmarshal([]byte(trace), &events); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	process := map[int]string{}
	tracks := map[string][]string{}
	for _, e := range events {
		switch {
		case e.Ph != "M":
		case e.Name == "process_name":
			process[e.Pid] = e.Args.Name
		case e.Name == "thread_name" && strings.HasPrefix(e.Args.Name, "req "):
			system, ok := strings.CutSuffix(strings.TrimPrefix(process[e.Pid], "S1 "), " requests")
			if !ok {
				t.Fatalf("track %q lies in process %q", e.Args.Name, process[e.Pid])
			}
			tracks[system] = append(tracks[system], strings.TrimPrefix(e.Args.Name, "req "))
		}
	}

	var runs []struct {
		System string `json:"system"`
		Series struct {
			Exemplars []struct {
				Exemplars []struct {
					ID json.Number `json:"id"`
				} `json:"exemplars"`
			} `json:"exemplars"`
		} `json:"series"`
	}
	series := timeseriesOut(t, append(flags, "timeseries", "S1", "-format=json"))
	if err := json.Unmarshal([]byte(series), &runs); err != nil {
		t.Fatalf("timeseries is not JSON: %v", err)
	}
	if len(runs) != len(tracks) {
		t.Fatalf("%d sampled runs, request tracks for %d systems", len(runs), len(tracks))
	}
	for _, r := range runs {
		var ids []string
		for _, w := range r.Series.Exemplars {
			for _, e := range w.Exemplars {
				ids = append(ids, e.ID.String())
			}
		}
		got := tracks[r.System]
		slices.Sort(ids)
		slices.Sort(got)
		if len(ids) == 0 || !slices.Equal(got, ids) {
			t.Errorf("%s: %d request tracks, %d exemplars in the series", r.System, len(got), len(ids))
		}
	}
}
