// Command benchmark is tusim's benchmark: six named workloads, four
// end-to-end metrics that every workload reports, and an account of
// each layer measured from outside by timing calls into its public
// functions. BENCHMARK.json at the root of the repo declares the names,
// units, directions and bounds; README.md says what each one means.
//
// Usage (from the root of a checkout; run.sh builds and forwards):
//
//	bash benchmark/run.sh                        # every workload, untraced
//	bash benchmark/run.sh -workload st_miss      # one workload
//	bash benchmark/run.sh -trace 1 -workload ... # the traced run: per-layer metrics + a Perfetto file
//	bash benchmark/run.sh -trace both -json      # the machine form (what RESULTS.json holds)
//	bash benchmark/run.sh -selfcheck             # two sets, spreads against the bounds
//	bash benchmark/run.sh -update                # re-pin expected.json for seeds 1 and 2
//	bash benchmark/run.sh -manifest              # print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	reps      int
	trace     string // "0", "1" or "both"
	traceOut  string
	jsonOut   bool
	selfcheck bool
	update    bool
	result    string // child mode: write the outcome here
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var names string
	var printManifest bool
	fs.StringVar(&names, "workload", "", "comma-separated workload names (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "the only input seed; the program under test sees generated inputs only")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures, cold pass included")
	fs.IntVar(&o.reps, "reps", 0, "exact number of timed repetitions (overrides -seconds)")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics; both")
	fs.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes Chrome trace-event JSON (default .bench_build/trace-<workload>.json)")
	fs.BoolVar(&o.jsonOut, "json", false, "print the machine form only")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the set twice, in opposite orders, and compare against the bounds")
	fs.BoolVar(&o.update, "update", false, "rewrite benchmark/expected.json for the pinned seeds")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	fs.StringVar(&o.result, "result", "", "internal: run one workload in this process and write its outcome here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if printManifest {
		m := theManifest()
		if err := m.validate(); err != nil {
			return err
		}
		_, err := os.Stdout.Write(m.encode())
		return err
	}
	if names == "" {
		for _, w := range workloadSpecs {
			o.workloads = append(o.workloads, w.Name)
		}
	} else {
		for _, n := range strings.Split(names, ",") {
			if _, ok := workloadFuncs[n]; !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			o.workloads = append(o.workloads, n)
		}
	}
	switch o.trace {
	case "0", "1", "both":
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want > 0", o.seconds)
	}

	if o.result != "" {
		return child(o)
	}
	tmp, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	h := newHeader(o) // the machine's load as the runs start
	switch {
	case o.update:
		return update(o, tmp)
	case o.selfcheck:
		return selfcheck(o, h, tmp)
	}
	set, err := runSet(o, tmp, false)
	if err != nil {
		return err
	}
	return report(o, h, set)
}

// buildDir is where everything the benchmark writes goes: inside the
// checkout, and ignored by git.
func buildDir() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}

// workers is W: GOMAXPROCS, and the most goroutines or connections that
// generate load at once.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// child runs one workload in this process. Each workload gets a process
// of its own, so its heap and its peak resident set are its own.
func child(o options) error {
	if len(o.workloads) != 1 || o.trace == "both" {
		return errors.New("-result wants one workload and -trace 0 or 1")
	}
	name := o.workloads[0]
	// Caches and servers of this run live in a directory of its own, so
	// that an empty cache is empty whatever ran before.
	tmp, err := os.MkdirTemp(filepath.Dir(o.result), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{
		name:    name,
		seed:    o.seed,
		seconds: o.seconds,
		reps:    o.reps,
		traced:  o.trace == "1",
		workers: workers(),
		tmp:     tmp,
		update:  o.update,
	}
	out, err := runWorkload(c)
	if err != nil {
		return err
	}
	if c.tr != nil {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(buildDir(), "trace-"+name+".json")
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := c.tr.writeChrome(f, "tusim benchmark: "+name); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(o.result, data, 0o644)
}

// spawn runs one workload in a child process and returns its outcome.
func spawn(o options, tmp, name, trace string) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := filepath.Join(tmp, fmt.Sprintf("%s-%s.json", name, trace))
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(o.reps),
		"-trace", trace,
		"-result", res,
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	if o.update {
		args = append(args, "-update")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr // a child's only output is its result file
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	data, err := os.ReadFile(res)
	if err != nil {
		return nil, err
	}
	var out outcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: result: %w", name, err)
	}
	return &out, nil
}

// runSet runs the selected workloads one after another, each untraced,
// traced or both, in list order or reversed.
func runSet(o options, tmp string, reversed bool) ([]*outcome, error) {
	names := append([]string(nil), o.workloads...)
	if reversed {
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
	}
	modes := []string{o.trace}
	if o.trace == "both" {
		modes = []string{"0", "1"}
	}
	var set []*outcome
	for _, name := range names {
		for _, mode := range modes {
			out, err := spawn(o, tmp, name, mode)
			if err != nil {
				return nil, err
			}
			set = append(set, out)
		}
	}
	return set, nil
}

// header records the machine and build a set of numbers came from.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	PGO        string  `json:"pgo"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"loadavg"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps,omitempty"`
}

func newHeader(o options) header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: workers(),
		GoVersion:  runtime.Version(),
		PGO:        "off",
		CPUModel:   "unknown",
		Seed:       o.seed,
		Seconds:    o.seconds,
		Reps:       o.reps,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				h.PGO = filepath.Base(s.Value)
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(data))
	}
	return h
}

func (h header) print() {
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s pgo=%s cpu=%q loadavg=%q seed=%d seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.PGO, h.CPUModel, h.LoadAvg, h.Seed, h.Seconds)
}

// metricOrder lists an outcome's metric names in declaration order.
func metricOrder(out *outcome) []string {
	specs := endToEndSpecs
	if out.Traced {
		specs = perLayerSpecs
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		if _, ok := out.Metrics[s.Name]; ok {
			names = append(names, s.Name)
		}
	}
	return names
}

// printOutcome writes one line per metric:
// workload metric value unit [n=... q1=... q3=...].
func printOutcome(out *outcome) {
	for _, name := range metricOrder(out) {
		v := out.Metrics[name]
		line := fmt.Sprintf("%s %s %s %s", out.Workload, name, fmtFloat(v.V), v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d q1=%s q3=%s", v.N, fmtFloat(v.Q1), fmtFloat(v.Q3))
		}
		fmt.Println(line)
	}
	ratio := float64(out.Failed) / math.Max(1, float64(out.Attempted))
	pin := "pinned"
	if !out.Pinned {
		pin = "unpinned"
	}
	fmt.Printf("%s fail_ratio %s failed/attempted (%d/%d, %s)\n", out.Workload, fmtFloat(ratio), out.Failed, out.Attempted, pin)
	for _, p := range out.Problems {
		fmt.Printf("# %s FAILED %s\n", out.Workload, p)
	}
	if len(out.Layers) > 0 {
		layers := make([]string, 0, len(out.Layers))
		var sum float64
		for l, s := range out.Layers {
			layers = append(layers, l)
			sum += s
		}
		sort.Slice(layers, func(i, j int) bool { return out.Layers[layers[i]] > out.Layers[layers[j]] })
		line := fmt.Sprintf("# %s traced repetitions %.3f s wall, layer self times sum to %.3f s:", out.Workload, out.TracedWall, sum)
		for _, l := range layers {
			line += fmt.Sprintf(" %s=%.3f", l, out.Layers[l])
		}
		fmt.Println(line)
	}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// contractLine is the last line a one-workload run prints.
func contractLine(out *outcome) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for name, v := range out.Metrics {
		metrics[name] = mv{v.V, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.Failed == 0 && out.Attempted > 0, out.Attempted, out.Failed, metrics})
}

// document is the machine form of a set of runs. No gain is claimed by
// the change that defines the benchmark, so claim is null.
type document struct {
	Header header     `json:"header"`
	Runs   []*outcome `json:"runs"`
	Claim  *string    `json:"claim"`
}

func report(o options, h header, set []*outcome) error {
	for _, out := range set {
		out.Digests = nil // only -update wants them
	}
	if o.jsonOut {
		data, err := json.MarshalIndent(document{Header: h, Runs: set}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return failures(set)
	}
	h.print()
	for _, out := range set {
		printOutcome(out)
	}
	if len(set) == 1 {
		line, err := contractLine(set[0])
		if err != nil {
			return err
		}
		// The result line is printed even when checks failed: the run
		// completed, and failed/attempted says how it went.
		fmt.Println(string(line))
		return nil
	}
	return failures(set)
}

// failures turns failed checks into a non-zero exit.
func failures(set []*outcome) error {
	var bad []string
	for _, out := range set {
		if out.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s %d/%d", out.Workload, out.Failed, out.Attempted))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed operations: %s", strings.Join(bad, ", "))
	}
	return nil
}

// exactCount reports whether a per-layer metric is a count of the
// modelled design or of the model checker, which must repeat exactly
// from one run of the same code and seed to the next.
func exactCount(name string) bool {
	switch {
	case strings.HasPrefix(name, "sim."), strings.HasPrefix(name, "cpu."), strings.HasPrefix(name, "tus."),
		strings.HasPrefix(name, "wcb."), strings.HasPrefix(name, "mech."), strings.HasSuffix(name, "_per_kuop") && strings.HasPrefix(name, "memsys."):
		return true
	}
	switch name {
	case "modelcheck.oracle_states", "modelcheck.sched_runs", "modelcheck.pruned":
		return true
	}
	return false
}

// selfcheck runs the set twice in one invocation, the second time in
// the opposite order, and holds the benchmark to its own bounds.
func selfcheck(o options, h header, tmp string) error {
	h.print()
	a, err := runSet(o, tmp, false)
	if err != nil {
		return err
	}
	b, err := runSet(o, tmp, true)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		traced   bool
	}
	second := map[key]*outcome{}
	for _, out := range b {
		second[key{out.Workload, out.Traced}] = out
	}
	bounds := map[string]float64{}
	for _, s := range endToEndSpecs {
		bounds[s.Name] = *s.Bound
	}
	var bad []string
	for _, x := range a {
		y := second[key{x.Workload, x.Traced}]
		for _, name := range metricOrder(x) {
			va, vb := x.Metrics[name].V, y.Metrics[name].V
			diff := 0.0
			if lo := math.Min(math.Abs(va), math.Abs(vb)); lo > 0 {
				diff = math.Abs(va-vb) / lo
			}
			verdict := ""
			if bnd, ok := bounds[name]; ok {
				verdict = fmt.Sprintf(" bound=%g ok", bnd)
				if diff > bnd {
					verdict = fmt.Sprintf(" bound=%g EXCEEDED", bnd)
					bad = append(bad, x.Workload+"/"+name)
				}
			} else if exactCount(name) {
				verdict = " exact ok"
				if va != vb {
					verdict = " exact DIFFERS"
					bad = append(bad, x.Workload+"/"+name)
				}
			}
			fmt.Printf("%s %s %s %s %s diff=%.4f%s\n", x.Workload, name, fmtFloat(va), fmtFloat(vb), x.Metrics[name].Unit, diff, verdict)
		}
		if x.Failed+y.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s failed %d+%d operations", x.Workload, x.Failed, y.Failed))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("selfcheck: %s", strings.Join(bad, ", "))
	}
	fmt.Println("# selfcheck: the two sets agree within every bound")
	return nil
}

// update re-pins expected.json: every workload at each pinned seed, one
// timed repetition each, digests collected instead of compared.
func update(o options, tmp string) error {
	digest, err := cellListDigest()
	if err != nil {
		return err
	}
	// Workloads not selected keep the pins they have.
	exp, err := loadExpected()
	if err != nil || exp.Seeds == nil {
		exp = &expectedFile{Seeds: map[string]map[string]*pinSet{}}
	}
	exp.CellLists = digest
	o.trace, o.reps = "0", 1
	for _, seed := range pinnedSeeds {
		o.seed = seed
		byWorkload := exp.Seeds[strconv.FormatInt(seed, 10)]
		if byWorkload == nil {
			byWorkload = map[string]*pinSet{}
		}
		for _, name := range o.workloads {
			out, err := spawn(o, tmp, name, "0")
			if err != nil {
				return err
			}
			if out.Failed > 0 {
				return fmt.Errorf("%s seed %d is not deterministic: %v", name, seed, out.Problems)
			}
			byWorkload[name] = out.Digests
			fmt.Fprintf(os.Stderr, "pinned %s seed %d (%d outputs)\n", name, seed, out.Attempted)
		}
		exp.Seeds[strconv.FormatInt(seed, 10)] = byWorkload
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join("benchmark", "expected.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s; rebuild to compile it in\n", path)
	return nil
}
