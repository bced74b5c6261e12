// Command perfbench is the repository benchmark. It drives one workload
// through the public API in a closed loop (one client, which waits for each
// reply before it sends the next request), checks every output, and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload cold-okg --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the layer each per-layer metric belongs to are
// described in perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "child-") {
		os.Exit(runChild(os.Args[1], os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string // where a traced run writes its spans ("" = nowhere)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config, io.Writer) (*result, error){
	"cold-okg": runCold,
	"warm-mix": runWarm,
	"fuzz-war": runFuzz,
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "cold-okg, warm-mix or fuzz-war")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every job spec and model seed derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long the measured loop submits new work")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload cold-okg|warm-mix|fuzz-war, -trace 0|1 and -seconds >= 0\n")
		return 2
	}
	fmt.Fprintf(stdout, "machine: %s\n", fingerprint())
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%v; closed loop, 1 client\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-52s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// fingerprint names the machine the figures were measured on.
func fingerprint() string {
	cpu := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// job is the client's record of one unit of work: a served fleet job, or
// one fuzz campaign with its model build and verdict checks.
type job struct {
	input      int     // index of the input in the workload's sequence
	latency    float64 // seconds, submit → done as the client saw it
	submit     float64 // POST /jobs round trip (served jobs)
	campaign   float64 // server busy time for the job, or intermittest.Campaign time
	devices    int64   // device simulations the job ran
	boundaries int64   // brown-outs the job simulated
	digest     []byte  // canonical JSON of the job's summary or campaign report
}

// tally collects a run's jobs, set-up times and failures.
type tally struct {
	jobs      []job
	setups    []float64
	rss       []float64 // peak RSS in MB of each server or campaign process
	attempted int
	failed    int
}

// fail records a failed operation with its reason.
func (t *tally) fail(w io.Writer, format string, args ...any) {
	t.failed++
	fmt.Fprintf(w, "FAIL "+format+"\n", args...)
}

// digestJobs is how many leading jobs the printed digest covers, so that
// two runs of one seed print the same digest however many jobs fit into
// their time.
const digestJobs = 3

// endToEnd turns a tally into the end-to-end metrics.
func (t *tally) endToEnd(w io.Writer) *result {
	var lat, camp []float64
	var busy, devices, bounds float64
	h := sha256.New()
	for i, j := range t.jobs {
		lat = append(lat, j.latency)
		camp = append(camp, j.campaign)
		busy += j.latency
		devices += float64(j.devices)
		bounds += float64(j.boundaries)
		if i < digestJobs {
			h.Write(j.digest)
		}
	}
	tail, pct := tailOf(lat)
	fmt.Fprintf(w, "digest: %s over the first %d jobs\n", hex.EncodeToString(h.Sum(nil))[:16], min(len(t.jobs), digestJobs))
	fmt.Fprintf(w, "jobs: %d; job_tail_s is p%.1f (%d jobs beyond it)\n", len(lat), pct, len(lat)-int(math.Round(pct/100*float64(len(lat)))))
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	// error_rate is also the result line's failed/attempted; it is printed
	// here rather than reported as a metric because it is 0 when correct.
	fmt.Fprintf(w, "error_rate: %g (%d of %d operations failed)\n", errRate, t.failed, t.attempted)
	return &result{
		Correct:   t.failed == 0 && len(t.jobs) > 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(t.setups), "s"},
			"job_p50_s":        {median(lat), "s"},
			"job_tail_s":       {tail, "s"},
			"campaign_p50_s":   {median(camp), "s"},
			"devices_per_s":    {devices / busy, "1/s"},
			"boundaries_per_s": {bounds / busy, "1/s"},
			"peak_rss_mb":      {median(t.rss), "MB"},
		},
	}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailOf returns the highest percentile of xs that has at least ten
// samples beyond it, and which percentile that is. With fewer than twenty
// samples that percentile would not lie above the median, so the maximum
// (p100) is returned instead.
func tailOf(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return s[n-1], 100
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n)
}
