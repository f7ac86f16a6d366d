// Command bench is the repository's one benchmark: four workloads driven
// through the public immune API, four end-to-end metrics, and per-layer
// metrics from a traced pass and from direct layer probes. README.md in
// this directory says what each workload and metric is for.
//
//	go run ./bench                                   every workload of BENCHMARK.json, every pass
//	go run ./bench -sockets                          and what needs a loopback interface
//	go run ./bench -workload rpc_lan -pass e2e       one workload, one pass
//	go run ./bench -workload rpc_lan -trace 0        the same, as the driver runs it
//	go run ./bench -agree A.jsonl B.jsonl            compare two sets of -out results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: the four of BENCHMARK.json, in order)")
		sockets = fs.Bool("sockets", false, "also run what needs a loopback interface: workload oneway_none_tcp and the tcpmesh and TCP baseline probes")
		pass    = fs.String("pass", "all", "which pass to run: e2e, traced, probes or all")
		trace   = fs.Int("trace", -1, "driver form: 0 = the e2e pass, 1 = the traced pass and the probes, of one -workload")
		seed    = fs.Uint64("seed", 1, "seed for Config.Seed, the tcpmesh backoff and the invocation bodies")
		seconds = fs.Int("seconds", defaultSeconds, "length of the measurement window")
		out     = fs.String("out", "", "append each result to this file, one JSON object a line (the input of -agree)")
		spans   = fs.String("spans", "", "append the traced pass's spans to this CSV file")
		agree   = fs.Bool("agree", false, "compare two -out files against the bounds in -spec and exit")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition, for -agree")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench -agree takes two result files")
			return 2
		}
		ok, err := agreeFiles(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	selected := workloads
	if *sockets {
		selected = append(selected[:len(selected):len(selected)], extraWorkloads...)
	}
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				fmt.Fprintf(stderr, "bench: no workload %q\n", n)
				return 2
			}
			selected = append(selected, w)
		}
	}
	var e2e, traced, probes, merge bool
	switch {
	case *trace == 0:
		e2e = true
	case *trace == 1:
		traced, probes, merge = true, true, true
	case *trace != -1:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	default:
		switch *pass {
		case "all":
			e2e, traced, probes = true, true, true
		case "e2e":
			e2e = true
		case "traced":
			traced = true
		case "probes":
			probes = true
		default:
			fmt.Fprintf(stderr, "bench: no pass %q\n", *pass)
			return 2
		}
	}
	if *trace != -1 && len(selected) != 1 {
		fmt.Fprintln(stderr, "bench: -trace needs exactly one -workload")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	code := 0
	report := func(res *result, err error) {
		if err != nil || !res.Correct {
			code = 1
			// Also where a harness that keeps only stderr will find it.
			for _, p := range res.Problems {
				fmt.Fprintf(stderr, "bench: %s %s: %s\n", res.Pass, res.Workload, p)
			}
		}
		printResult(stdout, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
		}
		if *spans != "" && len(res.spans) > 0 {
			if err := writeSpans(*spans, res.Workload, res.spans); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
		}
	}
	runProbesInto := func(res *result) error {
		err := runProbes(res, 1, *sockets)
		if err != nil {
			res.Correct = false
			res.Problems = append(res.Problems, err.Error())
		}
		return err
	}
	if e2e {
		for _, w := range selected {
			report(runWorkload(w, w.options(*seed, window, false)))
		}
	}
	if traced {
		for _, w := range selected {
			res, err := runWorkload(w, w.options(*seed, window, true))
			if merge && err == nil {
				err = runProbesInto(res)
			}
			report(res, err)
		}
	}
	if probes && !merge {
		res := &result{Correct: true, Metrics: map[string]metric{}, Pass: "probes"}
		err := runProbesInto(res)
		res.Attempted = uint64(len(res.Metrics))
		report(res, err)
	}
	return code
}

// printResult writes a result for people and then, as its last line, the
// driver contract's result object.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s %s ==\n", res.Pass, res.Workload)
	if e := res.Env; e != nil {
		fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s seed=%d window=%gs machine.calib_ns=%.0f steal_ticks=%d window_ops=%d",
			e.NProc, e.GOMAXPROCS, e.GoVersion, e.Seed, e.WindowS, e.Calib, e.StealTicks, e.WindowOps)
		if e.LatencySamples > 0 {
			fmt.Fprintf(w, " latency_samples=%d", e.LatencySamples)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(w, "PROBLEM:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
