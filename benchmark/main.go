// Command benchmark is the repository benchmark: it drives one workload
// through in-process flowd replicas behind the fleet client on the
// binary wire, checks every answer against a ground-truth oracle, and
// prints its metrics, one per line with its unit, then one JSON object
// as the last line of standard output.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash benchmark/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics and writes its spans to
// <out>/spans-<workload>-<seed>.jsonl. metrics.json describes every
// metric. The exit code is 1 when any answer was wrong or any request
// failed, 2 on a usage error.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed metrics.json
var catalogJSON []byte

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog() (catalog, error) {
	var c catalog
	err := json.Unmarshal(catalogJSON, &c)
	return c, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func main() { os.Exit(run()) }

func run() int {
	var st stamp
	var out string
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&st.Workload, "workload", "", "workload: point, solve or churn")
	fs.Int64Var(&st.Seed, "seed", 1, "seed of the generated graphs and queries")
	fs.IntVar(&st.Seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&st.Trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&st.Commit, "commit", "unknown", "commit the program was built from, for the stamp")
	fs.StringVar(&out, "out", ".bench_build", "directory for spill files and the traced run's spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloadByName(st.Workload)
	if !ok || st.Seconds < 1 || (st.Trace != 0 && st.Trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload point|solve|churn, --seconds >= 1, --trace 0|1")
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: metrics.json:", err)
		return 1
	}
	st.GOMAXPROCS, st.NumCPU, st.Go = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()

	units := map[string]string{}
	for _, d := range append(cat.EndToEnd, cat.PerLayer...) {
		units[d.Name] = d.Unit
	}
	res, lines, err := measure(w, st, out, units)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	want := cat.EndToEnd
	if st.Trace == 1 {
		want = cat.PerLayer
	}
	if err := conform(res.Metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	stampJSON, _ := json.Marshal(st)
	lines = append([]string{"stamp " + string(stampJSON)}, lines...)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		lines = append(lines, fmt.Sprintf("%s %.6g %s", name, v.Value, v.Unit))
	}
	bw := bufio.NewWriter(os.Stdout)
	for _, l := range lines {
		fmt.Fprintln(bw, "# "+l)
	}
	last, _ := json.Marshal(res)
	fmt.Fprintln(bw, string(last))
	if err := bw.Flush(); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// conform checks that got holds exactly the catalogue's metrics, with
// their units, and that every name is one the benchmark file accepts.
func conform(got map[string]metricValue, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, the catalogue lists %d", len(got), len(want))
	}
	for _, d := range want {
		if !validName(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		}
		v, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s reported in %s, the catalogue says %s", d.Name, v.Unit, d.Unit)
		}
	}
	return nil
}

// A run starts the fleet setUpsBefore times before the measured window,
// keeping the last, and setUpsAfter times after it; setup_s is the
// median of them all, so a host that speeds up or slows down during the
// run moves it less.
const setUpsBefore, setUpsAfter = 4, 5

// measure runs one workload end to end and returns its result, with
// each metric in the unit units gives it, and the text lines that
// explain it.
func measure(w workload, st stamp, out string, units map[string]string) (*result, []string, error) {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	dur := time.Duration(st.Seconds) * time.Second

	t0 := time.Now()
	o, err := buildOracle(ctx, w, st.Seed)
	if err != nil {
		return nil, nil, err
	}
	pool, err := makePool(ctx, w, o, st.Seed, w.poolSize, workers)
	if err != nil {
		return nil, nil, err
	}
	lines := []string{fmt.Sprintf("oracle: %d graphs, %d pre-answered queries in %.2fs (not part of setup_s)",
		len(o.pgs), len(pool), time.Since(t0).Seconds())}

	buildBase := buildHists()
	spill := filepath.Join(out, "spill")
	r, setupTimes, err := setUp(ctx, w, o, spill, setUpsBefore)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.stop()

	var tr *tracer
	var c0 counters
	if st.Trace == 1 {
		tr = &tracer{}
		c0 = readCounters(r)
	}
	sm, err := newSamples(maxAnswerRate * st.Seconds)
	if err != nil {
		return nil, nil, err
	}
	defer sm.free()
	runtime.GC()
	load := drive(ctx, w, r.fc, pool, dur, tr, sm)
	lat, done, lost := sm.kept()
	if lost > 0 {
		return nil, nil, fmt.Errorf("%d answers did not fit the sample store (%d answers/s at most)", lost, maxAnswerRate)
	}
	if wraps := load.attempted / len(pool); wraps > 0 {
		lines = append(lines, fmt.Sprintf("note: the query pool wrapped %d time(s)", wraps))
	}

	res := &result{Metrics: map[string]metricValue{}}
	put := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: units[name]} }

	checked := &load.tally
	if st.Trace == 0 {
		r.stop()
		runtime.GC()
		last, more, err := setUp(ctx, w, o, spill, setUpsAfter)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up after the window: %w", err)
		}
		last.stop()
		setupTimes = append(setupTimes, more...)

		n := load.answered
		k := max(1, st.Seconds/w.sliceSeconds)
		ss := sliced(lat, done, load.start, dur, k)
		errRate := ratio(int64(load.failed), int64(load.attempted))
		put("setup_s", median(setupTimes))
		put("qps", ss.qps)
		put("p50_ms", ss.p50)
		put("p99_ms", ss.p99)
		put("correct_ratio", 1-errRate)
		put("heap_mb", float64(load.heapPeak)/1e6)
		put("rounds_per_query", ratio(load.rounds, int64(n)))
		p90, _ := percentile(lat, 0.90)
		p99, above99 := percentile(lat, 0.99)
		pmax, _ := percentile(lat, 1)
		lines = append(lines,
			fmt.Sprintf("latency samples %d in %d slice(s) of the window, the smallest %d; qps, p50_ms and p99_ms are medians over the slices; each slice's p99 has at least %d samples above it",
				n, k, ss.minN, ss.minAbove99),
			fmt.Sprintf("per slice: qps %.6g; p50_ms %.4g; p99_ms %.4g", ss.perQPS, ss.perP50, ss.perP99),
			fmt.Sprintf("whole window: %.6g answers/s, p90 %.4gms, p99 %.4gms (%d above), max %.4gms",
				float64(n)/load.elapsed.Seconds(), ms(p90), ms(p99), above99, ms(pmax)),
			fmt.Sprintf("error_rate %.6g (%d failed of %d attempted, %d wrong answers)", errRate, load.failed, load.attempted, load.wrong),
			fmt.Sprintf("setup_s is the median of %d set-ups, %d before the window and %d after it; window %.3fs",
				len(setupTimes), setUpsBefore, setUpsAfter, load.elapsed.Seconds()))
		if ss.minAbove99 < 10 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: only %d samples above a slice's p99; run longer\n", ss.minAbove99)
		}
	} else {
		c1 := readCounters(r)
		for name, v := range counterMetrics(c0, c1, buildBase, load) {
			put(name, v)
		}
		var lt tally
		lm, err := ladder(ctx, w, r, pool, tr, &lt)
		if err != nil {
			return nil, nil, err
		}
		for name, v := range lm {
			put(name, v)
		}
		sm, err := snapshotMetrics(o, tr)
		if err != nil {
			return nil, nil, err
		}
		for name, v := range sm {
			put(name, v)
		}
		checked.merge(&lt)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, st.Seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, nil, err
		}
		lines = append(lines, fmt.Sprintf("%d spans written to %s", len(tr.spans), path),
			fmt.Sprintf("checked %d answers (%d failed, %d wrong)", checked.attempted, checked.failed, checked.wrong))
	}
	res.Attempted, res.Failed = checked.attempted, checked.failed
	res.Correct = checked.failed == 0 && checked.attempted > 0
	if checked.firstBad != "" {
		lines = append(lines, "first failure: "+checked.firstBad)
	}
	return res, lines, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
