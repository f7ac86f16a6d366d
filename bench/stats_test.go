package main

import (
	"bytes"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	return vs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1,000 samples: p99 has exactly ten beyond it, p99.1 only nine.
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(1000), 0.991); err == nil {
		t.Error("p99.1 of 1,000 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has nine beyond it and must be refused")
	}
	if v, err := percentile(seq(21), 0.5); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples has ten beyond it: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestMedianOfBatchesIgnoresOneSlowBatch(t *testing.T) {
	batches := []float64{100, 101, 5000, 99, 100}
	i := 0
	got := medianOfBatches(len(batches), func() float64 { i++; return batches[i-1] })
	if i != len(batches) {
		t.Errorf("ran %d batches, want %d", i, len(batches))
	}
	if got != 100 {
		t.Errorf("median of %v = %v, want 100", batches, got)
	}
}

// agreeSpec has one metric in each direction, both bounded at 10 %.
var agreeSpec = &benchSpec{
	Workloads: []specLoad{{Name: "w"}},
	EndToEnd: []specMetric{
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	},
}

func runsOf(throughput, latency []float64) []result {
	var rs []result
	for i := range throughput {
		rs = append(rs, result{Workload: "w", Pass: "e2e", Metrics: map[string]metric{
			"throughput_per_s": {throughput[i], "1/s"},
			"latency_p50_ms":   {latency[i], "ms"},
		}})
	}
	return rs
}

func TestAgree(t *testing.T) {
	base := runsOf([]float64{990, 1000, 1010}, []float64{2.0, 2.1, 1.9})
	for _, c := range []struct {
		name    string
		b       []result
		ok      bool
		verdict string // expected on the row that decides
	}{
		{"same medians", runsOf([]float64{1000, 1000, 1000}, []float64{2, 2, 2}), true, "agree"},
		{"inside both bounds", runsOf([]float64{910, 950, 900}, []float64{2.19, 2.1, 2.2}), true, "agree"},
		{"median, not mean: one wild run", runsOf([]float64{1000, 1000, 10}, []float64{2, 2, 50}), true, "agree"},
		{"throughput 11% lower", runsOf([]float64{890, 890, 890}, []float64{2, 2, 2}), false, "worse"},
		{"latency 11% higher", runsOf([]float64{1000, 1000, 1000}, []float64{2.22, 2.22, 2.22}), false, "worse"},
		{"throughput 11% higher", runsOf([]float64{1110, 1110, 1110}, []float64{2, 2, 2}), false, "better"},
		{"latency 11% lower", runsOf([]float64{1000, 1000, 1000}, []float64{1.78, 1.78, 1.78}), false, "better"},
		{"a metric missing", []result{{Workload: "w", Pass: "e2e", Metrics: map[string]metric{"throughput_per_s": {1000, "1/s"}}}}, false, "missing"},
		{"only traced results", []result{{Workload: "w", Pass: "traced", Metrics: base[0].Metrics}}, false, "missing"},
	} {
		var out bytes.Buffer
		if got := agree(agreeSpec, base, c.b, &out); got != c.ok {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 3 {
			t.Errorf("%s: %d lines, want a header and one row per metric\n%s", c.name, rows, out.String())
		}
	}
}

func TestGapSign(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 110, "higher", -0.10},
		{100, 90, "higher", 0.10},
	} {
		if got := gap(c.a, c.b, c.better); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("gap(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}
