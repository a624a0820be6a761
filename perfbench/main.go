// Command perfbench is flashsim's end-to-end benchmark. It runs one of
// four workloads against the simulator's public surfaces (flashsim.Run
// and flashsimd's v1 HTTP API served in-process over loopback), checks
// every result against a pinned digest, and prints the workload's
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with every
// profiler off; with --trace 1 they are the per-layer ones, taken from
// operations run under a CPU profile (and Config.WallProfile where the
// executor has one), each paired with an untraced one on the same input.
// See README.md for the workloads and how to read the numbers.
//
// Usage, from the checkout root:
//
//	bash perfbench/run.sh --workload paper-1host --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// A run draws its operations from inputsPerRun inputs generated from the
// workload seed: operation i runs input i mod inputsPerRun. Epoch counts
// and stream lengths vary from seed to seed, so a run's medians then span
// several seeds' simulated work, not one.
const inputsPerRun = 4

// inputSeed is the simulator seed of input j of a run with the given
// workload seed. It is never 0, which flashsimd reads as its default.
func inputSeed(seed uint64, j int) uint64 { return seed*inputsPerRun + uint64(j) + 1 }

// A workload's set-up runs at least setupMinRepeats times and until
// setupMinTime has passed; setup_s is the median. Set-ups that take
// microseconds thus get enough repeats for a steady median.
const (
	setupMinRepeats = 9
	setupMinTime    = time.Second
)

// runner runs one workload's operations against a prepared system.
type runner interface {
	// op runs one operation on input j. traced turns on the program's
	// own self-profiling where the surface has it (Config.WallProfile).
	op(j int, traced bool) (opResult, error)
	// shards is the shard count the workload asks for (0: sequential).
	shards() int
	close()
}

// opResult is what one operation reports besides its cost.
type opResult struct {
	digest string
	blocks uint64             // simulated application blocks
	layer  map[string]float64 // per-layer values: counts, ratios, spans
}

// workload is one benchmark workload.
type workload struct {
	name   string
	why    string
	pinned [inputsPerRun]string // digest of each input's results at defaultSeed
	setup  func(seed uint64) (runner, error)
}

var workloads = []workload{
	{
		name: "paper-1host",
		why:  "the paper's baseline on the sequential engine; index maps larger than the CPU caches; no registry, barrier or HTTP",
		pinned: [inputsPerRun]string{
			"0f87fad334d1646f7b27f059ea7f137fc18a0bf6718f945158cf7f19e5d2bbc7",
			"48e5679f2bcdb8cbcae3e0edf3698e620a297f0312c58a2a290457cba01923e8",
			"c9d8cc688e3925f33883ac75173ae16317d3df5ca9ad4eaf5c08bea898c8df5a",
			"cd4072b0e13fe7770766f2206a7d9822b10369d0a9ddd50d3d63f5edbf0be7ee",
		},
		setup: simSetup(paperConfig),
	},
	{
		name: "fleet-seq",
		why:  "1024-host shared working set on the sequential engine: every shared write probes every host",
		pinned: [inputsPerRun]string{
			"73aea9762102a78f5ea8163ebdfbce4587ce4b15c4bec6e2078c3f3ea60b8244",
			"b1b00bf7b1353ad4c320f031c1e70de33bf3c0a72ab0c6ed17bbdd5ff11e073e",
			"f444d79f6590ad9643299580dcb1e5f46af9fee03c8319a4481a0b8c94b84d3a",
			"1c975e48c771a5a09e356a303aed8d20b987c70db7234d72977246e60e9e66ca",
		},
		setup: simSetup(func(seed uint64) simConfig { return fleetConfig(seed, 0) }),
	},
	{
		name: "fleet-cluster",
		why:  "the same fleet on the sharded cluster: barrier, exchange merge, residency index, filer phases",
		pinned: [inputsPerRun]string{
			"b373b7ad04331fdea674d0f5047605f2a991908b78ec7ccdacefaceb1d253595",
			"2840826242d5a8b9a2e6f2e0e5003b4773359282c07fd6a267843c117dede6af",
			"48ea996cee0ecb2e76b36a7a3e7ed55b40c6ac2d3a1f830bbb77b96bffcd60c0",
			"847fb96dc7761198aa4d6306120e074857bf45eff81c10409aa773defb6254ce",
		},
		setup: simSetup(func(seed uint64) simConfig { return fleetConfig(seed, runtime.NumCPU()) }),
	},
	{
		name: "daemon-crash",
		why:  "closed-loop flashsimd round trips of a streamed crash-recovery scenario: serve, stream hub, NDJSON",
		pinned: [inputsPerRun]string{
			"5b328f1f36c787be292f1fcff10c3ed6e3306ebdc11f314174d792db9b438e03",
			"8c007e271b7f5165ff5349674816bc28cf73f883b280e382b87884e062f9e1e5",
			"aadde14da117fe3e8735b1b2fb5f193720b137cd36e259b93dbd74542e068dfb",
			"c185418235d28c5cdd79a18897aa86ed22ce955cae54c238312d95580f4e8595",
		},
		setup: daemonSetup,
	},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a profiled run; 0: end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of")
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, " %s", wl.name)
		}
		fmt.Fprintln(os.Stderr, ", --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed uint64, budget time.Duration, traced bool) error {
	var setupTimes []float64
	var r runner
	for start := time.Now(); len(setupTimes) < setupMinRepeats || time.Since(start) < setupMinTime; {
		if r != nil {
			r.close()
		}
		runtime.GC() // each set-up starts from the same heap
		ticks := readCPUTicks()
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wall := time.Since(t0).Seconds()
		setupTimes = append(setupTimes, wall*readCPUTicks().unstolen(ticks))
	}
	defer r.close()

	env := newEnv(w, seed, budget, traced, r.shards(), len(setupTimes))
	fmt.Printf("env: %s\n", mustJSON(env))
	fmt.Printf("workload %s: %s\n", w.name, w.why)

	// Off the default seed nothing is pinned: every operation, profiled
	// or not, must agree with the first on the same input.
	chk := &checker{}
	pinned := seed == defaultSeed
	if pinned {
		chk.ref = w.pinned
	}
	var out []metric
	ticks := readCPUTicks()
	if !traced {
		plain, _, _ := measure(r, budget, chk, nil)
		out = endToEnd(quantile(setupTimes, 0.5), plain)
		printTable(out, endToEndExtras(plain, chk, w.name == "daemon-crash"))
	} else {
		attr := newAttribution()
		plain, profiled, err := measure(r, budget, chk, attr)
		if err != nil {
			return err
		}
		out = perLayer(plain, profiled, attr)
		printTable(out, attr.lines(len(profiled)))
	}
	if ticks != nil {
		fmt.Printf("host steal: %.1f%% of CPU time while measuring (hypervisor contention; setup_s, run_s and blocks_per_s are net of it)\n",
			100*readCPUTicks().stolen(ticks))
	}
	for j, d := range chk.ref {
		if d == "" {
			d = "(not run)"
		}
		fmt.Printf("input %d (seed %d): digest %s\n", j, inputSeed(seed, j), d)
	}
	fmt.Printf("digests pinned: %t; %d of %d operations matched\n",
		pinned, chk.attempted-chk.failed, chk.attempted)
	return printResult(chk, out)
}

// checker validates each operation's digest against its input's
// reference: the pinned digest at the default seed, else the first digest
// it sees for that input.
type checker struct {
	ref               [inputsPerRun]string
	attempted, failed int
}

func (c *checker) record(j int, digest string, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	case c.ref[j] == "":
		c.ref[j] = digest
		return true
	case digest == c.ref[j]:
		return true
	default:
		fmt.Fprintf(os.Stderr, "perfbench: input %d: digest %s, want %s\n", j, digest, c.ref[j])
	}
	c.failed++
	return false
}

// env is the environment stamp every output carries.
type env struct {
	Workload         string `json:"workload"`
	Seed             uint64 `json:"seed"`
	Seconds          int    `json:"seconds"`
	Trace            bool   `json:"trace"`
	NumCPU           int    `json:"num_cpu"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Shards           int    `json:"shards"`
	ShardsExceedCPUs bool   `json:"shards_exceed_cpus"`
	Aggregation      string `json:"aggregation"`
}

func newEnv(w *workload, seed uint64, budget time.Duration, traced bool, shards, setups int) env {
	agg := fmt.Sprintf("setup_s: median of %d set-ups, net of steal; max_rss_mb: process peak; the rest: median over the run's operations, which cycle through %d inputs; run_s and blocks_per_s also net of steal", setups, inputsPerRun)
	if traced {
		agg = "module seconds: traced operations' total over their count; spans, counts and wall profile: median over the traced operations"
	}
	return env{
		Workload:         w.name,
		Seed:             seed,
		Seconds:          int(budget / time.Second),
		Trace:            traced,
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		Commit:           commit(),
		Shards:           shards,
		ShardsExceedCPUs: shards > runtime.NumCPU(),
		Aggregation:      agg,
	}
}

// commit reads the VCS revision the toolchain stamped into the binary;
// a build outside a git work tree has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs and maps of numbers
	}
	return b
}

// metric is one named, united value of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

func printTable(ms []metric, extra []string) {
	for _, m := range ms {
		fmt.Printf("  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, l := range extra {
		fmt.Println("  " + l)
	}
}

func printResult(chk *checker, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{chk.failed == 0, chk.attempted, chk.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
