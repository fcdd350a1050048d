// Command portbench is the repository's end-to-end benchmark: it runs
// bpmsd, built from the same checkout, as a subprocess with its default
// flags and drives it over /api/v1 with port-logistics traffic, or, with
// -trace 1, runs the same workload in process with spans at every layer
// boundary. See README.md in this directory.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash portbench/run.sh --workload clearance --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	bpmsd   string
	work    string
	seed    int64
	seconds int
}

func main() {
	var o options
	var name string
	var traced int
	flag.StringVar(&o.bpmsd, "bpmsd", "", "path of the bpmsd binary built from this checkout")
	flag.StringVar(&o.work, "work", ".bench_run", "scratch directory for data dirs, logs and span files")
	flag.StringVar(&name, "workload", "", "clearance | dangerous-goods | port-dashboard | all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the open-loop phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	summarize := flag.String("summarize", "", "print the per-layer summary of a span file and exit")
	flag.Parse()

	if *summarize != "" {
		sum, err := summarizeFile(*summarize)
		if err != nil {
			fatal(err)
		}
		sum.print(os.Stdout)
		return
	}
	var ws []workload
	for _, w := range workloads() {
		if name == "all" || w.name == name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	if o.bpmsd == "" && traced == 0 {
		fatal(fmt.Errorf("-bpmsd is required"))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "portbench: GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	ok := true
	for _, w := range ws {
		var res result
		var err error
		if traced == 1 {
			res, err = runTraced(w, o)
		} else {
			res, err = runE2E(w, o)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(w.name, res)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func printResult(name string, res result) {
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-16s %-32s %14.4f %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fatal(err error) {
	msg := strings.TrimSpace(err.Error())
	fmt.Fprintln(os.Stderr, "portbench:", msg)
	os.Exit(1)
}
