// Command perfbench is the repository's benchmark: it runs one named
// workload of iterative SQL against the engine from one client in a
// closed loop (the next query starts when the previous one returns),
// checks every answer against the graphalgo oracle, and prints the
// metrics by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload sssp-vs --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn and reports each metric
// under the workload's name.
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that times the calls into each layer and
// prints the per-layer metrics. The inputs are made from --seed alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newReport() *report { return &report{values: map[string]float64{}} }

// record counts one attempted query and whether it failed.
func (r *report) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		fmt.Fprintln(os.Stderr, "perfbench: query failed:", err)
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all of them in turn")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed queries of each workload run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	chosen := workloads
	if *name != "all" {
		chosen = nil
		if w, err := findWorkload(*name); err == nil {
			chosen = []workload{w}
		}
	}
	if chosen == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s or all), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}

	metrics := map[string]any{}
	attempted, failed := 0, 0
	for _, w := range chosen {
		rep, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace, *spansDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		// With several workloads each metric is reported under the
		// workload's name.
		prefix := ""
		if len(chosen) > 1 {
			prefix = w.name + "."
		}
		for _, s := range specs {
			v := rep.values[s.name]
			metrics[prefix+s.name] = map[string]any{"value": v, "unit": s.unit}
			fmt.Printf("%-28s %14.6g %s\n", prefix+s.name, v, s.unit)
		}
		for _, n := range rep.notes {
			fmt.Println(n)
		}
		fmt.Printf("%-28s %14.6g (%d failed of %d attempted)\n", prefix+"error_rate",
			float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
		if rep.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: incorrect result: %v\n", w.name, rep.firstErr)
		}
		attempted += rep.attempted
		failed += rep.failed
	}
	correct := failed == 0 && attempted > 0
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// measure runs one workload for one seed and prints a line describing
// the machine, the revision and the inputs.
func measure(w workload, seed int64, window time.Duration, trace int, spansDir string) (*report, error) {
	in := newInstance(w, seed)
	var sources, reaches []int64
	for _, v := range in.variants {
		if v.source != 0 {
			sources = append(sources, v.source)
			reaches = append(reaches, int64(v.reach))
		}
	}
	env := map[string]any{
		"workload": w.name, "seed": seed, "trace": trace,
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "revision": revision(),
		"nodes": in.nodes, "edges": len(in.edges), "sources": sources, "source_reach": reaches,
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("# %s\n", envJSON)
	if trace == 0 {
		return measureEndToEnd(in, window)
	}
	rec := newRecorder()
	rep, err := measureLayers(in, window, rec)
	if err == nil && spansDir != "" {
		err = writeSpans(rec, spansDir, w.name, seed, env)
	}
	return rep, err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// revision reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func revision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

func writeSpans(rec *recorder, dir, name string, seed int64, env map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := rec.write(path, env); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
