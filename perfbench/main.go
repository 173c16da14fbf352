// Command perfbench is the repository benchmark. It serves a generated
// lake through serve.Server over loopback HTTP, drives it with one of the
// workloads below, checks every response, and prints the result as one
// JSON object on the last line of standard output: the end-to-end metrics
// with --trace 0, or the per-layer metrics of a traced replay with
// --trace 1. README.md explains the workloads and every metric.
//
//	bash perfbench/run.sh --workload read-500 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"dust/internal/datagen"
)

// baseSpec is the BENCH_load lake; each workload sets only the table count.
const baseSpec = "rows=40,seed=7,zipf=1.5,parents=11,fk=0.3,null=0.01"

// workload is one traffic mix against one lake size. Phase sizes scale with
// --seconds: the open loop schedules rate*openSpan*seconds arrivals, the
// closed loop sends closedRate*seconds searches, and on search-only
// workloads a mutation probe sends probeOps*seconds writes from one client,
// each once the previous one has returned.
type workload struct {
	name       string
	tables     int
	rate       float64 // open-loop arrivals per second
	openSpan   float64 // open-loop length in units of --seconds
	churn      bool    // open loop is 50% search (hot pool), 25% PUT, 25% DELETE
	closedRate float64 // closed-loop searches per second of --seconds
	probeOps   float64 // mutation-probe writes per second of --seconds (search-only workloads)
	setups     int     // set-ups per run; setup_s is their median
	// rounds is how many times a run alternates its phases, so that each
	// metric samples the whole run rather than a few stretches of it: the
	// host's speed drifts from one second to the next.
	rounds int
}

var workloads = []workload{
	{name: "read-500", tables: 500, rate: 10, openSpan: 1, closedRate: 12, probeOps: 50, setups: 11, rounds: 12},
	{name: "read-10k", tables: 10000, rate: 4, openSpan: 1, closedRate: 5, probeOps: 4, setups: 3, rounds: 4},
	// churn-10k spends its time in the open loop, where its write
	// percentiles get their samples; its set-ups cost seconds each.
	{name: "churn-10k", tables: 10000, rate: 8, openSpan: 1.5, churn: true, closedRate: 4, setups: 3, rounds: 8},
}

// k is the result size of every search.
const k = 10

// hotPool is the number of distinct queries churn-10k's searches repeat.
const hotPool = 8

func (w workload) spec() datagen.LakeSpec {
	s, err := datagen.ParseLakeSpec(fmt.Sprintf("tables=%d,%s", w.tables, baseSpec))
	if err != nil {
		panic(err) // baseSpec is a constant
	}
	return s.Normalized()
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "read-500", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: arrival times, query order and the write mix")
	seconds := flag.Int("seconds", 10, "open-loop window in seconds; the other phases scale with it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced replay")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatalf("unknown workload %q", *name)
	}

	out := bufio.NewWriter(os.Stdout)
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			fatalf("encode result: %v", err)
		}
		out.Write(append(b, '\n'))
		out.Flush()
	}
	emit(map[string]any{"env": environment(chosen, *seed, *seconds, *trace)})

	var results []result
	for _, w := range chosen {
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
		res, err := run(cfg)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if len(chosen) > 1 {
			emit(map[string]any{"workload": w.name, "result": res})
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		final = merge(chosen, results)
	}
	emit(final)
	if !final.Correct {
		os.Exit(1)
	}
}

// merge folds per-workload results into one, prefixing metric names with
// the workload name.
func merge(ws []workload, rs []result) result {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, m := range r.Metrics {
			all.Metrics[ws[i].name+"."+n] = m
		}
	}
	return all
}

// environment records what a result was measured on.
func environment(ws []workload, seed int64, seconds, trace int) map[string]any {
	specs := map[string]string{}
	names := make([]string, len(ws))
	for i, w := range ws {
		specs[w.name] = w.spec().String()
		names[i] = w.name
	}
	sort.Strings(names)
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"workloads":  names,
		"lakespecs":  specs,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
