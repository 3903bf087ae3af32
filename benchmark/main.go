// Command benchmark is Argo's perf ledger: six workloads — the repository's
// own packaged runners, called unchanged — measured end to end on two clocks
// (host and virtual), per-layer unit costs from drivers that call each
// module's public functions, and a traced pass around those calls. See
// README.md in this directory.
//
//	go run ./benchmark                          the whole ledger
//	go run ./benchmark -workload lu_bulk -trace 0   one workload, contract result line
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

var (
	fWorkload  = flag.String("workload", "", "measure this one workload and print the result line as the last line")
	fSeed      = flag.Int64("seed", 42, "seed of the generated inputs (drf program, chaos plan)")
	fSeconds   = flag.Float64("seconds", 15, "seconds of timed runs per workload")
	fTrace     = flag.Int("trace", 1, "1 runs the traced pass and the per-layer drivers, 0 the timed pass only; with -workload, 1 reports per-layer and 0 end-to-end metrics")
	fOut       = flag.String("out", "benchmark/out/ledger.json", "where the whole-ledger run writes its result")
	fTraceOut  = flag.String("trace-out", "benchmark/out/trace.json", "where the traced pass writes its Chrome trace-event JSON")
	fCompare   = flag.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
	fSelfcheck = flag.Bool("selfcheck", false, "measure two sets back to back and assert they agree within the bounds")
	fUpdateFP  = flag.Bool("update-fingerprints", false, "after a whole-ledger run, rewrite benchmark/fingerprints.json from what it saw")
)

// setupPasses is how often set-up is repeated so that setup_s is a median.
const setupPasses = 3

// tracedRuns is how many runs of a workload the traced pass records.
const tracedRuns = 3

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	flag.Parse()
	if raceEnabled {
		die("built with -race: the race detector slows the measured paths five to tenfold, so the numbers would mean nothing")
	}
	// The reference box has two cores; pinning makes the numbers mean the
	// same on a bigger one.
	runtime.GOMAXPROCS(2)
	rec, err := loadFingerprints()
	if err != nil {
		die("fingerprints.json: %v", err)
	}
	switch {
	case *fCompare:
		if flag.NArg() != 2 {
			die("-compare takes two ledger files")
		}
		old, err := readLedger(flag.Arg(0))
		if err != nil {
			die("%v", err)
		}
		new, err := readLedger(flag.Arg(1))
		if err != nil {
			die("%v", err)
		}
		if compareLedgers(os.Stdout, old, new) {
			os.Exit(1)
		}
	case *fSelfcheck:
		printEnv(os.Stdout, currentEnv(), *fSeed, *fSeconds)
		a, _ := measureAll(rec, false)
		b, _ := measureAll(rec, false)
		compareLedgers(os.Stdout, a, b)
		if !agree(os.Stdout, a, b) {
			os.Exit(1)
		}
		fmt.Println("selfcheck: the two sets agree within every bound, fingerprints identical")
	case *fWorkload != "":
		w, ok := findWorkload(*fWorkload)
		if !ok {
			die("unknown workload %q", *fWorkload)
		}
		measureOne(w, rec)
	default:
		printEnv(os.Stdout, currentEnv(), *fSeed, *fSeconds)
		l, ss := measureAll(rec, *fTrace != 0)
		for _, r := range l.Workloads {
			printWorkload(os.Stdout, r)
		}
		if l.Layers != nil {
			printLayers(os.Stdout, l.Layers, l.LayerErrors)
		}
		if err := writeJSONFile(*fOut, l); err != nil {
			die("%v", err)
		}
		fmt.Printf("\nledger written to %s\n", *fOut)
		if *fUpdateFP {
			if err := writeJSONFile("benchmark/fingerprints.json", newFingerprints(*fSeed, ss)); err != nil {
				die("%v", err)
			}
			fmt.Println("fingerprints rewritten: benchmark/fingerprints.json")
		}
		failed := len(l.LayerErrors)
		for _, r := range l.Workloads {
			failed += r.Failed
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
}

func newSession(w workload) *session { return &session{w: w, seed: *fSeed} }

// timedPass runs the sessions' repetitions round-robin, one run of each
// workload in turn, so a noisy period on a shared box hits all of them
// alike; a workload drops out once it has used its seconds.
func timedPass(ss []*session, seconds float64) {
	budget := time.Duration(seconds * float64(time.Second))
	for busy := true; busy; {
		busy = false
		for _, s := range ss {
			if s.spent < budget {
				s.rep(nil)
				busy = true
			}
		}
	}
}

// measureAll takes one whole set: set-up passes, the timed pass, and, when
// traced, the traced pass with the per-layer drivers.
func measureAll(rec fingerprints, traced bool) (ledger, []*session) {
	var ss []*session
	for _, w := range workloads {
		ss = append(ss, newSession(w))
	}
	for pass := 0; pass < setupPasses; pass++ {
		for _, s := range ss {
			if err := s.setup(nil); err != nil {
				die("%v", err)
			}
		}
	}
	timedPass(ss, *fSeconds)
	l := ledger{Env: currentEnv(), Seed: *fSeed, Seconds: *fSeconds}
	if traced {
		tr := newTracer()
		root := tr.begin("bench", "bench")
		for _, s := range ss {
			id := tr.begin("workload/"+s.w.name, s.w.name)
			for i := 0; i < tracedRuns; i++ {
				s.rep(tr)
			}
			tr.end(id, tracedRuns, 0)
		}
		l.Layers, l.LayerErrors = runLayerDrivers(tr)
		tr.end(root, 1, 0)
		if err := tr.writeFile(*fTraceOut); err != nil {
			die("%v", err)
		}
		tr.printSelfTimes(os.Stdout)
		fmt.Printf("trace written to %s\n", *fTraceOut)
	}
	for _, s := range ss {
		l.Workloads = append(l.Workloads, s.result(rec, l.Layers, traced))
	}
	return l, ss
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// measureOne is the mode the accepting driver calls: one workload, and as
// the last line the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). A per-layer metric that is n/a on the workload reads 0 there;
// the table above the line gives the reason.
func measureOne(w workload, rec fingerprints) {
	printEnv(os.Stdout, currentEnv(), *fSeed, *fSeconds)
	s := newSession(w)
	line := resultLine{Metrics: make(map[string]lineMetric)}
	var layerErrs []string
	if *fTrace == 0 {
		for pass := 0; pass < setupPasses; pass++ {
			if err := s.setup(nil); err != nil {
				die("%v", err)
			}
		}
		timedPass([]*session{s}, *fSeconds)
		r := s.result(rec, nil, false)
		printWorkload(os.Stdout, r)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = lineMetric{finite(r.EndToEnd[m.Name].Median), m.Unit}
		}
	} else {
		tr := newTracer()
		root := tr.begin("bench", "bench")
		id := tr.begin("workload/"+w.name, w.name)
		setup := tr.begin("setup", w.name)
		if err := s.setup(tr); err != nil {
			die("%v", err)
		}
		tr.end(setup, 1, 0)
		// Untraced and traced runs alternate, so both medians see the same
		// box; the drivers get the rest of the time.
		budget := time.Duration(*fSeconds / 2 * float64(time.Second))
		for t0, n := time.Now(), 0; n < tracedRuns || time.Since(t0) < budget; n++ {
			s.rep(nil)
			s.rep(tr)
		}
		tr.end(id, int64(len(s.traced)), 0)
		var units map[string]value
		units, layerErrs = runLayerDrivers(tr)
		tr.end(root, 1, 0)
		r := s.result(rec, units, true)
		printWorkload(os.Stdout, r)
		printLayers(os.Stdout, units, layerErrs)
		tr.printSelfTimes(os.Stdout)
		if err := tr.writeFile(*fTraceOut); err != nil {
			die("%v", err)
		}
		fmt.Printf("trace written to %s\n", *fTraceOut)
		for _, m := range perLayer {
			v, ok := units[m.Name]
			if !ok {
				v = r.PerLayer[m.Name]
			}
			line.Metrics[m.Name] = lineMetric{finite(v.Value), m.Unit}
		}
	}
	line.Attempted, line.Failed = s.attempted, s.failed
	line.Correct = s.failed == 0 && len(layerErrs) == 0 && len(s.timed) > 0
	b, err := json.Marshal(line)
	if err != nil {
		die("%v", err)
	}
	fmt.Println(string(b))
}
