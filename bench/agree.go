package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads a -out file: one result a line.
func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func agreeFiles(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	return agree(spec, a, b, w), nil
}

// gap is how much worse b is than a as a share of a: positive is worse,
// negative better, whichever direction the metric improves in.
func gap(a, b float64, better string) float64 {
	g := (b - a) / a
	if better == "higher" {
		g = -g
	}
	return g
}

// agree prints one row per workload and end-to-end metric with the median
// of each set, how much worse the second is, and the verdict; it reports
// whether every pair is within the metric's bound, in either direction.
func agree(spec *benchSpec, a, b []result, w io.Writer) bool {
	values := func(rs []result, workload, name string) []float64 {
		var vs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Pass == "e2e" {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-18s %4s %14s %4s %14s %8s %6s  %s\n", "workload", "metric", "n", "median A", "n", "median B", "B worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s %4d %14s %4d %14s %8s %5.0f%%  missing\n", wl.Name, m.Name, len(va), "-", len(vb), "-", "-", 100*m.Bound)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			g := gap(ma, mb, m.Better)
			verdict := "agree"
			switch {
			case math.IsNaN(g) || math.IsInf(g, 0):
				verdict = "undefined"
			case g > m.Bound:
				verdict = "worse"
			case g < -m.Bound:
				verdict = "better"
			}
			if verdict != "agree" {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-18s %4d %14.4f %4d %14.4f %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name, len(va), ma, len(vb), mb, 100*g, 100*m.Bound, verdict)
		}
	}
	return ok
}
