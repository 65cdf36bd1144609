// Command perfbench is the simulator's benchmark. It runs one named
// workload as a closed loop with one caller for a given number of
// seconds, checks every simulation report it produces, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer profile) as one
// JSON object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload dense_glr_mobile -seed 1 -seconds 20 -trace 0
//
// Workloads and metrics are listed in BENCHMARK.json at the repository
// root; run.py builds and runs this program from a fresh checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "benchmark seed; scenario seeds derive from it")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer profile")
	traceDir := flag.String("trace-dir", "", "directory for span files of traced runs (empty: none)")
	iteration := flag.Int("iteration", -1, "step this iteration in this process, print its measurements and exit (internal)")
	record := flag.Int64("record", 0, "write reference fingerprints for benchmark seeds 1..n to references.json")
	flag.Parse()

	if *record > 0 {
		return recordReferences(*record, "references.json")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *iteration >= 0 {
		r, err := measureIteration(w, *seed, *iteration)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	if *seconds <= 0 {
		return fmt.Errorf("seconds %v must be positive", *seconds)
	}
	ctx := benchContext{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace,
	}
	var out output
	switch *trace {
	case 0:
		out, err = endToEnd(w, *seed, *seconds, &ctx)
	case 1:
		out, err = traced(w, *seed, *seconds, *traceDir, &ctx)
	default:
		return fmt.Errorf("trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		return err
	}
	ctxJSON, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("context %s\n", ctxJSON)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Printf("metric %-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchContext is printed beside every result: the host and run
// parameters a number needs to be compared with another.
type benchContext struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Iterations int     `json:"iterations"`
	// Worlds lists each distinct world configuration the run stepped,
	// with its shard pool size and fork thresholds.
	Worlds []worldContext `json:"worlds"`
}

type worldContext struct {
	Protocol       string `json:"protocol"`
	ShardWorkers   int    `json:"shard_workers"`
	ForkThresholds string `json:"fork_thresholds"`
}

// addWorld records a world configuration once.
func (c *benchContext) addWorld(wc worldContext) {
	for _, have := range c.Worlds {
		if have == wc {
			return
		}
	}
	c.Worlds = append(c.Worlds, wc)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
