// Command srjperf is the repository's end-to-end benchmark. It runs
// one workload per process against the public srj API — an
// in-process Engine, or an in-process fleet of three Servers behind a
// Router reached over loopback HTTP — checks the outputs, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	srjperf --workload local-draw --seed 1 --seconds 20 --trace 0
//	srjperf --workload all --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice (untraced, then with spans at every layer boundary, half the
// seconds each) and prints the per-layer metrics, the self-time split
// of the draw path, and the tracing overhead. "all" runs every
// workload, each in its own child process. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"repro"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space for WAL directories and trace files

	// Sizes below are fixed by the workload definitions; the flags
	// exist so the smoke test can run every code path in seconds.
	n      int // points per side
	setups int // set-up repetitions; setup_s is their median
	probe  int // applies in the post-run write probe of draw-only workloads

	// wrap, when set, wraps the Source the timed loop draws from; the
	// smoke test uses it to plant a wrong pair.
	wrap func(srj.Source) srj.Source
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "srjperf: %v\n", err)
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	return runOne(o, stdout, stderr)
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("srjperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: inputs, draw seeds, and the write sequence derive from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL data and trace files")
	fs.IntVar(&o.n, "n", 100_000, "points per side")
	fs.IntVar(&o.setups, "setups", 3, "set-up repetitions")
	fs.IntVar(&o.probe, "probe", 0, "applies in the write probe of draw-only workloads; 0 = the workload's own")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace != 0
	if o.seed == 0 || o.seconds <= 0 || o.n < 1000 || o.setups < 1 || o.probe < 0 {
		return o, fmt.Errorf("need --seed > 0, --seconds > 0, --n >= 1000, --setups >= 1, --probe >= 0")
	}
	if _, ok := workloadByName(o.workload); !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

// runOne runs one workload and prints its result. It exits 1 when an
// output check fails or the run cannot complete.
func runOne(o options, stdout, stderr io.Writer) int {
	w, _ := workloadByName(o.workload)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printEnv(out, w)
	rep, err := runWorkload(ctx, o, w, out)
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "srjperf: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	printResult(out, rep)
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// printEnv records the machine and settings every result depends on.
func printEnv(out io.Writer, w workload) {
	fsync := "none (no WAL)"
	if w.durable {
		fsync = fsyncPolicy
	}
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s fsync=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), fsync)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one workload run.
type report struct {
	attempted int
	failed    int
	failures  []string // output checks that failed
	metrics   []metric // the metrics of the result line, in order
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes the metrics one per line, then the result object
// as the last line.
func printResult(out io.Writer, rep *report) {
	res := jsonResult{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]jsonMetric, len(rep.metrics)),
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(out, "ops: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	b, _ := json.Marshal(res) // plain structs of numbers and strings: cannot fail
	fmt.Fprintf(out, "%s\n", b)
}

// runAll runs every workload in a child process of this binary with
// the same flags, echoes their output, and ends with one result object
// whose metrics are prefixed by the workload name.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "srjperf: %v\n", err)
		return 1
	}
	var childArgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		childArgs = append(childArgs, a)
	}
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		cmd := exec.Command(self, append([]string{"--workload", w.name}, childArgs...)...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		stdout.Write(outb)
		if err != nil {
			fmt.Fprintf(stderr, "srjperf: %s: %v\n", w.name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var res jsonResult
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	b, _ := json.Marshal(all)
	fmt.Fprintf(stdout, "%s\n", b)
	if !all.Correct {
		code = 1
	}
	return code
}

// scratchDir makes a fresh directory under the work directory.
func scratchDir(workdir, name string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, name+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
