package argo_test

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"argo/internal/coherence"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/harness"
	"argo/internal/mem"
	"argo/internal/probe"
	"argo/internal/workloads/cg"
	"argo/internal/workloads/drf"
	"argo/internal/workloads/lu"
	"argo/internal/workloads/pqbench"
	"argo/internal/workloads/wload"
)

var census = flag.Bool("census", false, "run the determinism census of the six ledger runner calls and the fig8–13 -quick experiments (report only; go test -run Census -census -cpu 1,2,4 -v .)")

// censusRuns is how often each runner call is repeated per GOMAXPROCS value.
const censusRuns = 5

// fact is one thing a runner call reported.
type fact struct{ name, value string }

func resultFacts(r wload.Result) []fact {
	fs := []fact{{"makespan", strconv.FormatInt(int64(r.Time), 10)}, {"check", strconv.FormatFloat(r.Check, 'x', -1, 64)}}
	s := reflect.ValueOf(r.Stats)
	for i := 0; i < s.NumField(); i++ {
		fs = append(fs, fact{"stats." + s.Type().Field(i).Name, strconv.FormatInt(s.Field(i).Int(), 10)})
	}
	return fs
}

func pqFacts(r pqbench.Result) []fact {
	return []fact{
		{"makespan", strconv.FormatInt(int64(r.Time), 10)}, {"ops", strconv.FormatInt(r.Ops, 10)},
		{"delegated", strconv.FormatInt(r.Delegated, 10)}, {"si-fences", strconv.FormatInt(r.SIFences, 10)},
	}
}

// censusCalls are the six runner calls of benchmark/workloads.go, at the
// ledger's sizes, geometry (4 nodes × 4 threads, six nodes for lu_chaos) and
// default seed; a seeded workload repeats one seed here, where the ledger
// gives every repetition its own.
var censusCalls = []struct {
	name string
	run  func() ([]fact, error)
}{
	{"lu_bulk", func() ([]fact, error) {
		return resultFacts(lu.RunArgo(wload.ArgoConfig(4, 64<<20), lu.Params{N: 768, Block: 32}, 4)), nil
	}},
	{"cg_gather", func() ([]fact, error) {
		return resultFacts(cg.RunArgo(wload.ArgoConfig(4, 64<<20), cg.Params{N: 65536, PerRow: 32, Iters: 32}, 4)), nil
	}},
	{"drf_scatter", func() ([]fact, error) {
		r, err := drf.RunReport(drf.Params{
			Seed: 42, Nodes: 4, TPN: 4, Elements: 131072, Epochs: 6, Reads: 2048,
			PageSize: 4096, CacheLine: 64, PerLine: 2, WBPages: 64,
			Mode: coherence.ModePS3, Policy: mem.Interleaved,
		})
		return []fact{{"makespan", strconv.FormatInt(int64(r.Makespan), 10)}, {"digest", strconv.FormatUint(r.Digest, 16)}}, err
	}},
	{"pq_hqdl", func() ([]fact, error) {
		return pqFacts(pqbench.RunDSM(pqbench.DSMHQDL, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 4000, WorkUnits: 48, Preload: 512})), nil
	}},
	{"pq_mutex", func() ([]fact, error) {
		return pqFacts(pqbench.RunDSM(pqbench.DSMMutex, wload.ArgoConfig(4, 64<<20), 4, pqbench.Params{OpsPerThread: 400, WorkUnits: 48, Preload: 512})), nil
	}},
	{"lu_chaos", func() ([]fact, error) {
		plan, err := fault.ParsePlan("crash=0.03,crashrestart=on,partition=0.05,partdur=2,drop=0.01,seed=42")
		if err != nil {
			return nil, err
		}
		r, err := lu.RunCrash(lu.CrashParams{Params: lu.Params{N: 768, Block: 32}, Nodes: 6, Faults: &plan})
		sorted := strings.Fields(r.History)
		sort.Strings(sorted)
		return []fact{
			{"makespan", strconv.FormatInt(int64(r.Makespan), 10)}, {"digest", strconv.FormatUint(r.Digest, 16)},
			{"epoch", strconv.FormatInt(r.Epoch, 10)}, {"deaths", strconv.Itoa(r.Deaths)}, {"suspects", strconv.Itoa(r.Partitions)},
			{"decisions", r.History}, {"decisions-sorted", strings.Join(sorted, " ")},
		}, err
	}},
}

// kindCounter is a probe sink that counts events by kind.
type kindCounter [probe.NumKinds]atomic.Int64

func (c *kindCounter) Observe(e probe.Event) { c[e.Kind].Add(1) }

// interactionKinds are the spine's kinds that mark an interaction point: a
// place where another thread's operation can change what this one sees.
var interactionKinds = []probe.Kind{
	probe.ReadMiss, probe.WriteMiss, probe.SIFence, probe.SDFence,
	probe.OpRead, probe.OpWrite, probe.OpFetch, probe.OpAtomic, probe.OpPostBurst, probe.OpRegBurst,
	probe.Delegate, probe.DelegateRun, probe.TicketWait, probe.TicketRelease,
	probe.ArriveLocal, probe.DepartLocal, probe.ArriveGlobal, probe.DepartGlobal, probe.ArriveFinal, probe.DepartFinal,
}

// TestCensus is the determinism census of the ledger: it makes each ledger
// runner call censusRuns times and prints which of the facts it reports
// repeated exactly and which did not (for a numeric fact, over what range). It
// asserts nothing that is known to vary today — its table, committed in
// DESIGN §20, is the bug list a sequencer has to empty, and inverted it is the
// acceptance test. A counting sink on every cluster adds, per call, the mean
// count per run of each interaction-point kind and of the sim.Proc.Point calls
// they imply (DESIGN §32): write misses open pages, DSM lock acquires are
// Acquired points, and every priority-queue operation ends in an OpDone.
func TestCensus(t *testing.T) {
	if !*census {
		t.Skip("report only, and a minute of runs: give -census (with -cpu 1,2,4 -v) to take it")
	}
	var counts kindCounter
	defer func(hook func(*core.Config)) { core.ConfigHook = hook }(core.ConfigHook)
	core.ConfigHook = func(cfg *core.Config) { cfg.Observers = append(cfg.Observers, &counts) }
	fmt.Printf("census: GOMAXPROCS=%d, %d runs of each call\n", runtime.GOMAXPROCS(0), censusRuns)
	for _, call := range censusCalls {
		var names []string
		seen := map[string]map[string]bool{}
		for k := range counts {
			counts[k].Store(0)
		}
		var ops int64
		for i := 0; i < censusRuns; i++ {
			facts, err := call.run()
			if err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
			for _, f := range facts {
				if f.name == "ops" {
					n, _ := strconv.ParseInt(f.value, 10, 64)
					ops += n
				}
				if seen[f.name] == nil {
					seen[f.name] = map[string]bool{}
					names = append(names, f.name)
				}
				seen[f.name][f.value] = true
			}
		}
		var same, varied []string
		for _, name := range names {
			if len(seen[name]) == 1 {
				same = append(same, name)
			} else {
				varied = append(varied, fmt.Sprintf("%s (%d values%s)", name, len(seen[name]), spread(seen[name])))
			}
		}
		fmt.Printf("  %-12s repeated: %s\n  %-12s varied:   %s\n", call.name, orNone(same), "", orNone(varied))
		perRun := func(n int64) int64 { return (n + censusRuns/2) / censusRuns }
		var spine []string
		for _, k := range interactionKinds {
			if n := counts[k].Load(); n > 0 {
				spine = append(spine, fmt.Sprintf("%s %d", k, perRun(n)))
			}
		}
		fmt.Printf("  %-12s per run:  %s\n  %-12s points:   PageOpen %d, Acquired %d, OpDone %d\n", "", orNone(spine), "",
			perRun(counts[probe.WriteMiss].Load()), perRun(counts[probe.LockAcquire].Load()), perRun(ops))
	}
}

// censusFigures are the experiments of the fig8–13 -quick set.
var censusFigures = []string{"fig8", "fig9-10", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig13d", "fig13e", "fig13f"}

// TestFigureCensus is the same census over the figures: it runs each -quick
// experiment censusRuns times and prints, per table, the columns whose every
// cell repeated exactly and each cell that did not (with its range). Like
// TestCensus it asserts nothing; its table is DESIGN §20's second one.
func TestFigureCensus(t *testing.T) {
	if !*census {
		t.Skip("report only: give -census (with -cpu 1,2,4 -v) to take it")
	}
	fmt.Printf("figure census: GOMAXPROCS=%d, %d runs of each -quick experiment\n", runtime.GOMAXPROCS(0), censusRuns)
	for _, id := range censusFigures {
		e, ok := harness.Lookup(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		var tables []*censusTable
		for i := 0; i < censusRuns; i++ {
			got, err := e.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for j, tb := range got {
				if i == 0 {
					tables = append(tables, &censusTable{title: tb.Title, headers: tb.Headers, seen: map[[2]int]map[string]bool{}})
					for _, row := range tb.Rows {
						label := row[0]
						if tb.Headers[1] == "Threads" { // scaling rows: nodes × threads
							label += "×" + row[1]
						}
						tables[j].labels = append(tables[j].labels, label)
					}
				}
				for r, row := range tb.Rows {
					for c, v := range row {
						k := [2]int{r, c}
						if tables[j].seen[k] == nil {
							tables[j].seen[k] = map[string]bool{}
						}
						tables[j].seen[k][v] = true
					}
				}
			}
		}
		for _, tb := range tables {
			tb.report(id)
		}
	}
}

// censusTable accumulates the values each cell of one table took.
type censusTable struct {
	title   string
	headers []string
	labels  []string                   // by row: the row's first cell(s) in the first run
	seen    map[[2]int]map[string]bool // by (row, column)
}

func (tb *censusTable) report(id string) {
	var same, varied []string
	for c, h := range tb.headers {
		all := true
		for r, label := range tb.labels {
			if vs := tb.seen[[2]int{r, c}]; len(vs) > 1 {
				all = false
				varied = append(varied, fmt.Sprintf("%s[%s] (%d values%s)", h, label, len(vs), spread(vs)))
			}
		}
		if all {
			same = append(same, h)
		}
	}
	fmt.Printf("  %-7s %s\n          repeated: %s\n          varied:   %s\n", id, tb.title, orNone(same), orNone(varied))
}

// spread renders the range of a set of numeric values as ", lo…hi, x %" (the
// distance between them over the larger), and as nothing if one is no number.
func spread(values map[string]bool) string {
	lo, hi := 0.0, 0.0
	first := true
	for v := range values {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return ""
		}
		if first || n < lo {
			lo = n
		}
		if first || n > hi {
			hi = n
		}
		first = false
	}
	return fmt.Sprintf(", %s…%s, %.2f %%", strconv.FormatFloat(lo, 'f', -1, 64), strconv.FormatFloat(hi, 'f', -1, 64), 100*(hi-lo)/hi)
}

func orNone(names []string) string {
	if len(names) == 0 {
		return "—"
	}
	return strings.Join(names, ", ")
}

// modulePackages type-checks every package of the module from source —
// non-test files only — and returns them by import path with their use
// records. The module's own imports resolve through this loader, the standard
// library through the stdlib "source" importer; nothing is downloaded.
type modulePackages struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	info map[string]*types.Info
}

func (m *modulePackages) Import(path string) (*types.Package, error) {
	if path != "argo" && !strings.HasPrefix(path, "argo/") {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "argo")
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for name, f := range p.Files {
			// Build-tagged twins (internal/racetag) declare the same names;
			// the census reads the production build.
			if match, _ := build.Default.MatchFile(dir, filepath.Base(name)); match {
				files = append(files, f)
			}
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.info[path] = pkg, info
	return pkg, nil
}

// loadModule loads every directory of the module that holds non-test Go.
func loadModule(t *testing.T) *modulePackages {
	fset := token.NewFileSet()
	m := &modulePackages{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, info: map[string]*types.Info{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		if _, err := m.Import(filepath.ToSlash(filepath.Join("argo", path))); err != nil {
			var none *build.NoGoError
			if !errors.As(err, &none) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// exportedName renders an object as DESIGN §21 and testdata/exports_kept.txt
// spell it: "internal/mem.Space.PageBase", "internal/fabric.IntraNodeAccess".
func exportedName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = receiverName(recv).Name() + "." + name
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "argo/") + "." + name
}

// markNamed marks every named type t is built from as used by package path
// and returns those it marked for the first time.
func markNamed(t types.Type, path string, used map[types.Object]bool) (fresh []types.Object) {
	mark := func(ts ...types.Type) {
		for _, t := range ts {
			fresh = append(fresh, markNamed(t, path, used)...)
		}
	}
	switch t := t.(type) {
	case *types.Named:
		if obj := t.Origin().Obj(); obj.Pkg() != nil && obj.Pkg().Path() != path && !used[obj] {
			used[obj] = true
			fresh = append(fresh, obj)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			mark(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		mark(t.Elem())
	case *types.Slice:
		mark(t.Elem())
	case *types.Array:
		mark(t.Elem())
	case *types.Chan:
		mark(t.Elem())
	case *types.Map:
		mark(t.Key(), t.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				mark(tuple.At(i).Type())
			}
		}
	}
	return fresh
}

// reach extends used to what a user of the names already in it can get hold
// of without spelling it: the types in the signature of a used function, in
// the exported fields of a used struct and behind a used variable or
// constant — closed transitively — and then the members of every used enum
// (constants of a used named type), which are how a value of it is read.
func reach(m *modulePackages, used map[types.Object]bool) {
	var work []types.Object
	for obj := range used {
		work = append(work, obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		t := obj.Type()
		if tn, ok := obj.(*types.TypeName); ok {
			t = tn.Type().Underlying()
		}
		if st, ok := t.(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					work = append(work, markNamed(st.Field(i).Type(), "", used)...)
				}
			}
			continue
		}
		work = append(work, markNamed(t, "", used)...)
	}
	for _, pkg := range m.pkgs {
		for _, name := range pkg.Scope().Names() {
			if c, ok := pkg.Scope().Lookup(name).(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok && n.Obj().Pkg() == pkg && used[n.Obj()] {
					used[c] = true
				}
			}
		}
	}
}

// receiverName returns the named type a method is declared on (every
// receiver in this module is a named type or a pointer to one).
func receiverName(recv *types.Var) *types.TypeName {
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named).Origin().Obj()
}

// implementsSome reports whether fn is a method some interface asks of its
// receiver: such a method is called through the interface, never by name.
func implementsSome(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := receiverName(recv).Type()
	if types.IsInterface(rt) {
		return true
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
				return true
			}
		}
	}
	return false
}

// TestOrphanExports keeps DESIGN §21 true: every exported function, method,
// type, variable and constant under internal/ has a non-test user outside its
// own package, is a method an interface asks for, or is a kept row of the
// census — one "path.Symbol — reason" line in testdata/exports_kept.txt. A
// kept line whose symbol has gained a user or vanished fails too, so the file
// cannot outlive its reasons. (Struct fields are data layout, read by
// reflection and JSON as well as by name, and are not counted.)
func TestOrphanExports(t *testing.T) {
	if !*census {
		t.Skip("type-checks the module and the standard-library packages it imports from source: give -census")
	}
	m := loadModule(t)

	// Interfaces a method may serve: every one the module declares, plus the
	// standard library's that its types implement.
	var ifaces []*types.Interface
	for _, src := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"sync", "Locker"}, {"sort", "Interface"}, {"container/heap", "Interface"},
		{"io", "Writer"}, {"flag", "Value"}, {"encoding/json", "Marshaler"},
	} {
		p, err := m.std.Import(src.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(src.name).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range m.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	// A name is used where another package spells it; a type also where
	// another package holds a value of it (cli.BenchFlags returns a *Bench
	// nobody names) or can reach one through what it uses (reach); and a
	// method of a type the root package aliases is the library's public
	// surface whether or not an example calls it.
	used := map[types.Object]bool{}
	public := map[*types.TypeName]bool{}
	for path, info := range m.info {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == nil || obj.Pkg().Path() == path {
				continue
			}
			used[obj] = true
			if tn, ok := obj.(*types.TypeName); ok && path == "argo" {
				public[tn] = true
			}
		}
		for _, tv := range info.Types {
			markNamed(tv.Type, path, used)
		}
	}
	reach(m, used)
	// orphansOf lists the exported names nothing in used reaches.
	orphansOf := func(used map[types.Object]bool) map[string]types.Object {
		orphans := map[string]types.Object{}
		for path, info := range m.info {
			if !strings.HasPrefix(path, "argo/internal/") {
				continue
			}
			for id, obj := range info.Defs {
				if obj == nil || !id.IsExported() || used[obj] {
					continue
				}
				if fn, ok := obj.(*types.Func); ok {
					// A method counts when its type is exported, no interface
					// asks for it and the library does not expose it.
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && (!receiverName(recv).Exported() || public[receiverName(recv)]) {
						continue
					}
					if implementsSome(fn, ifaces) {
						continue
					}
				} else if obj.Parent() != obj.Pkg().Scope() {
					continue // a field, a local, a method of an interface type
				}
				// An alias is the type it names: pgas.SharedF64 is held
				// wherever a Shared[float64] is.
				if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok && used[n.Origin().Obj()] {
						continue
					}
				}
				orphans[exportedName(obj)] = obj
			}
		}
		return orphans
	}
	orphans := orphansOf(used)

	kept := map[string]bool{}
	data, err := os.ReadFile("testdata/exports_kept.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("exports_kept.txt: %q is not a \"path.Symbol — reason\" line", line)
			continue
		}
		kept[name] = true
		if orphans[name] == nil {
			t.Errorf("exports_kept.txt: %s has gained a non-test user outside its package or no longer exists: drop the line", name)
		}
	}
	// A kept name is needed by its row's reason; what it hands out (the type
	// a kept test accessor returns) is needed with it.
	for name := range kept {
		if obj := orphans[name]; obj != nil {
			used[obj] = true
		}
	}
	reach(m, used)
	var names []string
	for name := range orphansOf(used) {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: exported, and nothing outside its package but tests uses it — delete it, unexport it, or give it a row in DESIGN §21 and testdata/exports_kept.txt", name)
	}
}

// scanLibrary parses the non-test Go under internal/ and in the root package
// (cmd/ and benchmark/ are tools) and hands visit every top-level declaration
// with its file and its name ("Group.Run" for a method, the first name a type,
// var or const declaration declares).
func scanLibrary(t *testing.T, visit func(path, name string, d ast.Decl)) {
	fset := token.NewFileSet()
	scan := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			name := ""
			switch d := d.(type) {
			case *ast.FuncDecl:
				name = d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if gen, ok := recv.(*ast.IndexExpr); ok { // delegQueue[H]
						recv = gen.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
			case *ast.GenDecl:
				switch spec := d.Specs[0].(type) {
				case *ast.TypeSpec:
					name = spec.Name.Name
				case *ast.ValueSpec:
					name = spec.Names[0].Name
				default:
					continue // imports
				}
			}
			visit(filepath.ToSlash(path), name, d)
		}
	}
	nonTest := func(name string) bool { return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") }
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if nonTest(path) {
			scan(path)
		}
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && nonTest(d.Name()) {
			scan(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnlySimulatedThreadsSpawn keeps the one goroutine the library starts
// the one sim.Group.Run starts per simulated thread: any other would be host
// concurrency that no virtual clock orders, which a sequencer behind
// sim.Proc.Point could not hook. It needs no -census flag.
func TestOnlySimulatedThreadsSpawn(t *testing.T) {
	const allowed = "internal/sim/sim.go: Group.Run"
	var spawns []string
	scanLibrary(t, func(path, name string, d ast.Decl) {
		ast.Inspect(d, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				spawns = append(spawns, fmt.Sprintf("%s: %s", path, name))
			}
			return true
		})
	})
	if len(spawns) != 1 || spawns[0] != allowed {
		t.Fatalf("go statements in library code: %v; want exactly one, in %s", spawns, allowed)
	}
}

// seamPoints is how many sim.Proc.Point calls of each kind library code
// makes (DESIGN §32). Each one moves virtual makespans, so a new one is a
// row reviewers see here.
var seamPoints = map[string]int{"PageOpen": 1, "Acquired": 4, "Serve": 1, "OpDone": 3}

// TestOneSchedulerSeam keeps the host scheduler behind one seam: library code
// yields only in sim.Proc.Point, whose policy decides what a point does, and
// in the TLB spin guard, which waits on a host-level writer and is no
// simulated interaction. The Point calls are counted by kind against
// seamPoints.
func TestOneSchedulerSeam(t *testing.T) {
	allowed := []string{"internal/cache/tlb.go: Line.BumpGen", "internal/sim/sched.go: Proc.Point"}
	var yields []string
	points := map[string]int{}
	scanLibrary(t, func(path, name string, d ast.Decl) {
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "runtime" && n.Sel.Name == "Gosched" {
					yields = append(yields, fmt.Sprintf("%s: %s", path, name))
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Point" {
					kind := "?"
					if len(n.Args) == 1 {
						if arg, ok := n.Args[0].(*ast.SelectorExpr); ok {
							if x, ok := arg.X.(*ast.Ident); ok && x.Name == "sim" {
								kind = arg.Sel.Name
							}
						}
					}
					points[kind]++
				}
			}
			return true
		})
	})
	sort.Strings(yields)
	if !reflect.DeepEqual(yields, allowed) {
		t.Errorf("runtime.Gosched in library code: %v; want exactly %v (a simulated thread yields through sim.Proc.Point)", yields, allowed)
	}
	if !reflect.DeepEqual(points, seamPoints) {
		t.Errorf("sim.Proc.Point calls by kind: %v; want %v (a new one is a row of seamPoints)", points, seamPoints)
	}
}

// sleepSites are the functions of library code that block on a channel
// (DESIGN §32): a simulated thread sleeps on a sim.Waiter, whose Sleep and
// Wake are the whole of it. A WaitQueue parks its waiters there, and a thread
// that waits outside a queue (a delegator awaiting its section) sleeps on a
// Waiter it handed its waker.
var sleepSites = []string{
	"internal/sim/waitq.go: Waiter.Sleep",
	"internal/sim/waitq.go: Waiter.Wake",
}

// TestOneWayToSleep keeps one way to sleep: library code declares no
// sync.Cond, and blocks on a channel only at sleepSites. A select with a
// default case does not block, so its cases are no sleep. A range over a
// channel is not seen (the walk has no types); there is none.
func TestOneWayToSleep(t *testing.T) {
	var conds []string
	sleeps := map[string]bool{}
	scanLibrary(t, func(path, name string, d ast.Decl) {
		site := fmt.Sprintf("%s: %s", path, name)
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && (n.Sel.Name == "Cond" || n.Sel.Name == "NewCond") {
					conds = append(conds, site)
				}
			case *ast.SelectStmt:
				if slices.ContainsFunc(n.Body.List, func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil }) {
					for _, c := range n.Body.List {
						for _, st := range c.(*ast.CommClause).Body {
							ast.Inspect(st, visit)
						}
					}
					return false
				}
			case *ast.SendStmt:
				sleeps[site] = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					sleeps[site] = true
				}
			}
			return true
		}
		ast.Inspect(d, visit)
	})
	if len(conds) > 0 {
		t.Errorf("sync.Cond in library code: %v; a simulated thread that waits for another parks on a sim.WaitQueue", conds)
	}
	var got []string
	for site := range sleeps {
		got = append(got, site)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, sleepSites) {
		t.Errorf("blocking channel operations in library code: %v; want exactly %v (a simulated thread sleeps on sim.WaitQueue)", got, sleepSites)
	}
}

// TestOneRecycler keeps one way to recycle (DESIGN §31): what library code
// keeps for reuse — frames, chunks, TLBs, waiters, fence scratch — goes to a
// sparse.FreeList, never to a sync.Pool, whose per-P items and collections
// would make what a run allocates depend on the host scheduler and the
// collector.
func TestOneRecycler(t *testing.T) {
	var pools []string
	scanLibrary(t, func(path, name string, d ast.Decl) {
		ast.Inspect(d, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" && sel.Sel.Name == "Pool" {
					pools = append(pools, fmt.Sprintf("%s: %s", path, name))
				}
			}
			return true
		})
	})
	if len(pools) > 0 {
		t.Errorf("sync.Pool in library code: %v; recycle through a sparse.FreeList", pools)
	}
}

// TestInternalImportsNoRoot keeps the layers pointing one way: the module
// root re-exports internal/, so nothing under internal/ — tests included —
// imports the root package argo. What a package there needs of the cluster
// it takes from internal/core, the one constructor both build through.
func TestInternalImportsNoRoot(t *testing.T) {
	fset := token.NewFileSet()
	var importers []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"argo"` {
				importers = append(importers, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) > 0 {
		t.Errorf("internal packages import the module root argo: %v; take the cluster from internal/core", importers)
	}
}
