// Command bench is the repository's end-to-end benchmark: four named
// workloads driven through the public functions of every module, the nine
// end-to-end numbers printed by name with their units, the outputs checked
// against a reference computation, and — with -trace — a second run that
// attributes the time to layers from harness-side spans.
//
//	go run ./bench                       # all workloads, default seed
//	go run ./bench -workload scan_storm  # one workload; last line is JSON
//	go run ./bench -trace                # add the per-layer table
//	go run ./bench -repeat 2             # same code twice, diff vs bounds
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// Seeds: the default is what everyday runs and the committed numbers use;
// the held-out seed is for confirming a claim on inputs nobody tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20061019
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// boolish is a flag that reads as a bare switch (-trace) and also takes
// the 0/1 value form the benchmark driver passes (--trace 1).
type boolish bool

func (b *boolish) String() string   { return strconv.FormatBool(bool(*b)) }
func (b *boolish) IsBoolFlag() bool { return true }
func (b *boolish) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolish(v)
	return err
}

// joinBoolValues rewrites "-trace 1" as "-trace=1": the flag package never
// takes a boolean's value from the next argument.
func joinBoolValues(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		for _, n := range names {
			if (args[i] == "-"+n || args[i] == "--"+n) && i+1 < len(args) {
				if _, err := strconv.ParseBool(args[i+1]); err == nil {
					out[len(out)-1] += "=" + args[i+1]
					i++
				}
			}
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("the only source of randomness (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", defaultSeconds, "measuring time per workload; a traced run spends half of it untraced")
	var traced boolish
	fs.Var(&traced, "trace", "also run every stage under spans and print the per-layer table")
	repeat := fs.Int("repeat", 1, "run the selection this many times and compare each run with the first against the bounds")
	outDir := fs.String("out", "bench/out", "directory the traced run writes trace_<workload>.json to")
	if err := fs.Parse(joinBoolValues(args, "trace")); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, and there are no positional arguments")
		return 2
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	opt := options{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: bool(traced), outDir: *outDir, sizes: fullSizes}

	// runs[i] holds workload i's reports. With -repeat the repetitions of
	// one workload run back to back, so the runs being compared sit seconds
	// apart rather than a whole suite apart: on a shared host the machine
	// drifts more over minutes than the code does.
	status := 0
	runs := make([][]*report, len(selected))
	for i, w := range selected {
		for r := 0; r < *repeat; r++ {
			rep, err := w.run(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rep.print(os.Stdout)
			if !rep.correct {
				status = 1
			}
			runs[i] = append(runs[i], rep)
		}
	}
	if *repeat > 1 && !compareRuns(runs) {
		status = 1
	}
	// A single-workload run ends with the machine-readable result line.
	if len(selected) == 1 {
		fmt.Println(runs[0][*repeat-1].resultLine())
	}
	return status
}

// compareRuns prints, for every end-to-end number of every workload, how
// much worse each later run was than the first. It reports whether every
// gating metric stayed within its bound; the demoted ones are shown for
// the record.
func compareRuns(runs [][]*report) bool {
	ok := true
	fmt.Println("== repeat: later runs against the first, same code")
	for _, reps := range runs {
		first := reps[0]
		for r, later := range reps[1:] {
			for _, m := range endToEnd {
				worse := m.worsening(first.values[m.Name], later.values[m.Name])
				verdict := "ok"
				if worse > m.Bound {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Printf("   %-18s %-26s run %d: %+7.2f%% (bound %2.0f%%) %s\n",
					first.workload, m.Name, r+2, 100*worse, 100*m.Bound, verdict)
			}
			for _, m := range demoted {
				worse := m.worsening(first.values[m.Name], later.values[m.Name])
				fmt.Printf("   %-18s %-26s run %d: %+7.2f%% (does not gate)\n", first.workload, m.Name, r+2, 100*worse)
			}
		}
	}
	return ok
}
