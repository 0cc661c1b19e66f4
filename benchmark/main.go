// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload against the public atmem,
// apps, graph and broker APIs, times every layer from outside (around
// the calls into its public functions), checks every output, and prints
// one JSON result line:
//
//	go run . --workload oneshot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the same workload and seed run again
// with the benchmark's spans and the runtime's telemetry recorder on,
// and the result carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input to smoke-test size (tests only).
	tiny bool
}

// measureSeconds is how long the untraced measured section runs: all of
// --seconds, or half when a traced rerun of the same rounds follows, so
// both modes take about as long.
func (c config) measureSeconds() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	failures  []string
	// info holds record-only details: sample counts, round counts.
	info map[string]any
	// spans are the traced run's benchmark spans, written at the end.
	spans []Span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
}

// check counts one checked operation and records it as failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkErr counts one operation that failed iff err is non-nil.
func (o *outcome) checkErr(err error, what string) {
	o.check(err == nil, "%s: %v", what, err)
}

var workloads = map[string]func(config) (*outcome, error){
	"oneshot":  runOneshot,
	"hotshift": runHotshift,
	"tenants":  runTenants,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: oneshot, hotshift or tenants")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured section runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced rerun")
	spansDir := flag.String("spans-dir", "", "with --trace 1, write the traced run's spans to a JSON file in this directory")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: usage: --workload oneshot|hotshift|tenants --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: failed: %s\n", cfg.workload, f)
	}
	if cfg.trace && *spansDir != "" {
		if err := writeSpans(*spansDir, cfg, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	rec, res := report(cfg, out)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report builds the record line (host, seed and every measured number)
// and the result line (the metrics of the requested mode only).
func report(cfg config, out *outcome) (map[string]any, result) {
	set, vals := endToEnd, out.e2e
	if cfg.trace {
		set, vals = perLayer, out.layers
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range set {
		res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	all := map[string]value{}
	for _, src := range []map[string]float64{out.e2e, out.layers} {
		for k, v := range src {
			all[k] = value{Value: v, Unit: unitOf(k)}
		}
	}
	failures := append([]string{}, out.failures...)
	sort.Strings(failures)
	rec := map[string]any{"record": map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"ops":        out.attempted,
		"failed_ops": out.failed,
		"failures":   failures,
		"metrics":    all,
		"info":       out.info,
	}}
	return rec, res
}

// writeSpans writes the traced run's benchmark spans, with self times,
// as <dir>/<workload>-seed<N>.spans.json.
func writeSpans(dir string, cfg config, spans []Span) error {
	type row struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		SelfNS  int64  `json:"self_ns"`
		Parent  int    `json:"parent"`
	}
	self := SelfTimes(spans)
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s.Name, int64(s.Start), int64(s.End), int64(self[i]), s.Parent}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", cfg.workload, cfg.seed)), raw, 0o644)
}

// gitSHA is the VCS revision the Go toolchain stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && !strings.HasSuffix(sha, "unknown") {
		sha += "+dirty"
	}
	return sha
}
