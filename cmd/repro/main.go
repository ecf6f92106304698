// Command repro regenerates the tables and figures of "Making Sense of
// Constellations" (CoNEXT Companion '23) on a simulated constellation.
//
// Usage:
//
//	repro [flags] <analysis|figN|all|dist>
//	repro [flags] -scenario <file-or-preset> [analysis|figN|all|dist]
//	repro -worker-listen <addr>
//	repro -list-scenarios
//
// Every run is a scenario.Spec: the starlink-baseline preset at -scale
// density with -seed and -slots, or the spec -scenario names (a JSON
// file or an embedded preset). Its analyses run from one stage table,
// in this order:
//
//	fig2      §3 RTT trace of the Madrid terminal (Figure 2)
//	stats     §3 Mann-Whitney U between consecutive 15 s windows
//	fig3      §4 obstruction maps and the recovered polar-plot geometry
//	ident     §4 DTW identification vs ground truth, sky plot, naive-matcher ablation
//	aoe       §5 angle of elevation, available vs chosen (Figure 4)
//	azimuth   §5 azimuth, available vs chosen (Figure 5)
//	launch    §5 launch-date preference (Figure 6)
//	sunlit    §5.3 sunlit vs dark satellites (Figure 7)
//	model     §6 random forest vs the most-populated-cluster baseline (Figure 8)
//	recovery  planted-preference recovery (specs with planted weights)
//	ext       §8 extensions: hemispheres, GSO, load, handover, motion
//	drift     online inference under a mid-campaign scheduler update
//
// aoe through recovery read one oracle observation campaign, run once
// before the first of them or replayed from -load-obs, as a stream into
// their accumulators; no run holds the campaign. fig4 to fig8 name aoe
// to model; all runs fig2 through ext except recovery; a spec that lists
// no analyses runs ident through recovery. dist hashes the campaign's
// record stream, run here or sharded across -worker-listen processes.
//
// Flags, by what they act on (repro -h describes each):
//
//	environment  -scenario -list-scenarios -scale -seed -slots
//	machine      -workers -snapshot-workers -no-index
//	outputs      -dir -save-obs -load-obs -save-model -full-grid
//	telemetry    -telemetry-addr -trace-decisions -trace-out -v
//	drift        -predict-addr
//	dist         -worker-listen -record-delay -coord-workers -coord-shards -coord-journal -coord-out
//
// -dir, -load-obs, -save-model, -full-grid and -predict-addr are read
// only by some analyses; naming one when none of them runs is a usage
// error (exit 2).
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/obstruction"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/skyplot"
	"repro/internal/telemetry"
	"repro/internal/traceio"
)

// options carries the flag values into run; one struct instead of a
// dozen positional parameters.
type options struct {
	scenario      string
	listScenarios bool
	scale         string
	seed          int64
	slots         int
	workers       int
	snapWorkers   int
	dir           string
	fullGrid      bool
	saveObs       string
	loadObs       string
	saveMdl       string
	telemetryAddr string
	traceDepth    int
	traceOut      string
	verbose       bool
	noIndex       bool
	workerListen  string
	predictAddr   string
	recordDelay   time.Duration
	coordWorkers  string
	coordShards   int
	coordJournal  string
	coordOut      string
	// set holds the names of the flags given on the command line.
	set map[string]bool
}

func main() {
	var opt options
	flag.StringVar(&opt.scenario, "scenario", "", "run this spec, a JSON file path or an embedded preset name, instead of starlink-baseline")
	flag.BoolVar(&opt.listScenarios, "list-scenarios", false, "list the embedded scenario presets and exit")
	flag.StringVar(&opt.scale, "scale", "medium", "constellation density of the starlink-baseline preset: small|medium|full (not with -scenario)")
	flag.Int64Var(&opt.seed, "seed", 7, "deterministic seed")
	flag.IntVar(&opt.slots, "slots", 500, "campaign length in 15-second slots")
	flag.IntVar(&opt.workers, "workers", 0, "worker pool size for campaigns and model training (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&opt.snapWorkers, "snapshot-workers", 0, "fan-out for the per-slot constellation propagation sweep (0 = GOMAXPROCS, 1 = serial; byte-identical output at every value)")
	flag.StringVar(&opt.dir, "dir", ".", "output directory for the fig3 and ident PNGs")
	flag.BoolVar(&opt.fullGrid, "full-grid", false, "model: search the full hyperparameter grid")
	flag.StringVar(&opt.saveObs, "save-obs", "", "write campaign observations as JSONL to this file")
	flag.StringVar(&opt.loadObs, "load-obs", "", "re-analyze saved observations instead of running a campaign")
	flag.StringVar(&opt.saveMdl, "save-model", "", "model: write the trained forest as JSON to this file")
	flag.StringVar(&opt.telemetryAddr, "telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	flag.IntVar(&opt.traceDepth, "trace-decisions", 0, "keep the last n campaign scheduling decisions in a ring")
	flag.StringVar(&opt.traceOut, "trace-out", "", "write the decision ring as JSONL to this file on exit")
	flag.BoolVar(&opt.verbose, "v", false, "print the telemetry counter summary on exit")
	flag.BoolVar(&opt.noIndex, "no-index", false, "disable the spatial visibility index (ablation; identical results, linear scans)")
	flag.StringVar(&opt.workerListen, "worker-listen", "", "run as a campaign worker serving shards on this address (no experiment argument)")
	flag.StringVar(&opt.predictAddr, "predict-addr", "", "drift: stream slots to a running predictd at this address instead of an in-process model")
	flag.DurationVar(&opt.recordDelay, "record-delay", 0, "worker mode: throttle record production (fault-injection hook)")
	flag.StringVar(&opt.coordWorkers, "coord-workers", "", "dist: comma-separated worker addresses; empty runs the single-process golden")
	flag.IntVar(&opt.coordShards, "coord-shards", 0, "dist: terminal shards (0 = one per worker)")
	flag.StringVar(&opt.coordJournal, "coord-journal", "", "dist: per-shard journal directory (default: a temp dir)")
	flag.StringVar(&opt.coordOut, "coord-out", "", "dist: write the merged record stream as JSONL to this file")
	flag.Parse()
	opt.set = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { opt.set[f.Name] = true })
	// Ctrl-C aborts the campaign loop cleanly: the context threads down
	// into core.RunCampaignStream, which stops the stream and returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A scenario carries its own analyses, so with -scenario the
	// positional argument is optional.
	var err error
	switch {
	case opt.workerListen != "":
		err = runWorker(ctx, opt)
	case opt.listScenarios:
		err = listScenarios()
	case flag.NArg() == 1:
		err = run(ctx, flag.Arg(0), opt)
	case flag.NArg() == 0 && opt.scenario != "":
		err = run(ctx, "", opt)
	default:
		err = usageError("usage: repro [flags] [-scenario file-or-preset] <analysis|fig4..fig8|all|dist>\nanalyses: " +
			strings.Join(scenario.Analyses, " "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// listScenarios prints the embedded preset table: what `-scenario
// <name>` accepts without a file.
func listScenarios() error {
	for _, name := range scenario.PresetNames() {
		spec, err := scenario.LoadPreset(name)
		if err != nil {
			return err
		}
		shells, err := spec.Shells()
		if err != nil {
			return err
		}
		sats := 0
		for _, sh := range shells {
			sats += sh.Planes * sh.SatsPerPlane
		}
		fmt.Printf("%-18s %5d sats  %4d slots  %s\n", name, sats, spec.Campaign.Slots, spec.Description)
	}
	return nil
}

// runWorker serves shard campaigns until the context is cancelled —
// the `repro -worker-listen addr` process a coordinator drives.
func runWorker(ctx context.Context, opt options) error {
	srv, err := coord.NewWorkerServer(opt.workerListen, &coord.Worker{RecordDelay: opt.recordDelay})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repro: worker serving shards on %s\n", srv.Addr())
	if err := srv.Serve(ctx); err != nil && err != context.Canceled {
		return err
	}
	return nil
}

// runDist shards the campaign across external worker processes and
// prints the sha256 of the merged JSONL stream. With no -coord-workers
// it runs the identical campaign single-process — producing the golden
// hash a distributed run must match. Workers rebuild the environment —
// constellation geometry, terminal placement, scheduler config — from
// the spec the coordinator ships them.
func runDist(ctx context.Context, opt options, reg *telemetry.Registry, scn *scenario.Spec) error {
	h := sha256.New()
	var out io.Writer = h
	if opt.coordOut != "" {
		f, err := os.Create(opt.coordOut)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(h, f)
	}
	start := time.Now()
	if opt.coordWorkers == "" {
		built, err := scn.Build(scenario.BuildOptions{})
		if err != nil {
			return err
		}
		cfg := built.CampaignConfig()
		cfg.Metrics = core.NewCampaignMetrics(reg)
		enc := traceio.NewEncoder[core.SlotRecord](out)
		stats, err := core.RunCampaignStream(ctx, cfg, func(rec core.SlotRecord) error {
			return enc.Encode(&rec)
		})
		if err != nil {
			return err
		}
		if err := enc.Close(); err != nil {
			return err
		}
		fmt.Printf("# single-process golden: %d records over %d terminals in %.1fs\n",
			stats.Records, stats.Terminals, time.Since(start).Seconds())
		fmt.Printf("# served %d  skips %d  ident %d/%d correct\n",
			stats.Served, sumSkips(stats.Skips), stats.Correct, stats.Attempted)
	} else {
		journal := opt.coordJournal
		if journal == "" {
			dir, err := os.MkdirTemp("", "repro-coord-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			journal = dir
		}
		c := &coord.Coordinator{
			Workers:    strings.Split(opt.coordWorkers, ","),
			Spec:       scn,
			Shards:     opt.coordShards,
			JournalDir: journal,
			Registry:   reg,
			Out:        out,
		}
		res, err := c.Run(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("# distributed: %d records over %d terminals, %d shards on %d workers in %.1fs\n",
			res.Records, res.Terminals, res.Shards, len(c.Workers), time.Since(start).Seconds())
		fmt.Printf("# served %d  skips %d  ident %d/%d correct\n",
			res.Served, sumSkips(res.Skips), res.Correct, res.Attempted)
		fmt.Printf("# replayed %d records from journals, %d shard reassignments\n",
			res.Replayed, res.Reassigned)
	}
	if opt.coordOut != "" {
		fmt.Printf("# merged stream written to %s\n", opt.coordOut)
	}
	fmt.Printf("sha256 %x\n", h.Sum(nil))
	return nil
}

func sumSkips(skips map[string]int) int {
	n := 0
	for _, v := range skips {
		n += v
	}
	return n
}

// figures maps the paper's figure names to the analyses that draw them.
var figures = map[string]string{"fig4": "aoe", "fig5": "azimuth", "fig6": "launch", "fig7": "sunlit", "fig8": "model"}

// everything is what `repro all` runs.
var everything = []string{"fig2", "stats", "fig3", "ident", "aoe", "azimuth", "launch", "sunlit", "model", "ext"}

// usageError is a flag combination rejected before anything runs; main
// exits 2 for it, as for a malformed command line.
type usageError string

func (e usageError) Error() string { return string(e) }

// loadSpec resolves the run's environment description: the -scenario
// file or preset, else the starlink-baseline preset at -scale density
// with -seed and -slots. A positional analysis, figure name or "all"
// replaces the spec's analyses; "dist" and no argument keep them.
func loadSpec(what string, opt options) (*scenario.Spec, error) {
	var scn *scenario.Spec
	var err error
	if opt.scenario == "" {
		if scn, err = scenario.Starlink(opt.scale, opt.seed); err != nil {
			return nil, err
		}
		scn.Campaign.Slots = opt.slots
	} else {
		if opt.set["scale"] {
			return nil, usageError("-scale picks the starlink-baseline density; it does not combine with -scenario")
		}
		if scn, err = scenario.Resolve(opt.scenario); err != nil {
			return nil, err
		}
		// Explicitly-set flags beat the spec file; the defaults (seed 7,
		// slots 500) must not clobber what the scenario asked for.
		if opt.set["slots"] {
			scn.Campaign.Slots = opt.slots
		}
		if opt.set["seed"] {
			scn.Seed = opt.seed
		}
	}
	// The worker counts change only the cost, never the output.
	if opt.set["workers"] {
		scn.Campaign.Workers = opt.workers
	}
	if opt.set["snapshot-workers"] {
		scn.Campaign.SnapshotWorkers = opt.snapWorkers
	}
	if opt.loadObs != "" && (opt.saveObs != "" || scn.Outputs.Observations != "") {
		return nil, usageError("-load-obs replays saved observations; it does not combine with -save-obs or a spec's outputs.observations")
	}
	switch {
	case what == "all":
		scn.Outputs.Analyses = everything
	case figures[what] != "":
		scn.Outputs.Analyses = []string{figures[what]}
	case what != "" && what != "dist":
		scn.Outputs.Analyses = []string{what}
	}
	// A flag that only some analyses read must have one of them
	// selected; dist runs none.
	for _, f := range sortedKeys(opt.set) {
		names := readers(f)
		if len(names) > 0 && (what == "dist" || !slices.ContainsFunc(names, scn.AnalysisEnabled)) {
			return nil, usageError(fmt.Sprintf("-%s: no selected analysis reads it (%s do)", f, strings.Join(names, ", ")))
		}
	}
	return scn, scn.Validate()
}

func run(ctx context.Context, what string, opt options) error {
	scn, err := loadSpec(what, opt)
	if err != nil {
		return err
	}
	// The registry exists only when something consumes it: the HTTP
	// endpoint, the -v summary, a decision dump, or the dist
	// coordinator. Otherwise every instrumented path stays on its nil
	// fast branch.
	var reg *telemetry.Registry
	if opt.telemetryAddr != "" || opt.verbose || what == "dist" {
		reg = telemetry.NewRegistry()
	}
	if what == "dist" {
		// dist never touches the local constellation — workers build
		// their own environment from the spec — so it skips env
		// construction and the coordinator host stays lightweight.
		if err := serveTelemetry(ctx, opt, reg, nil); err != nil {
			return err
		}
		if err := runDist(ctx, opt, reg, scn); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	} else if err := analyze(ctx, scn, opt, reg); err != nil {
		return err
	}
	if opt.verbose {
		printTelemetry(reg)
	}
	return nil
}

// serveTelemetry starts the -telemetry-addr endpoint when one is set.
func serveTelemetry(ctx context.Context, opt options, reg *telemetry.Registry, trace *telemetry.DecisionTrace) error {
	if opt.telemetryAddr == "" {
		return nil
	}
	srv, err := telemetry.StartServer(ctx, opt.telemetryAddr, reg, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repro: telemetry on http://%s/metrics\n", srv.Addr())
	return nil
}

// analyze builds the spec's environment and runs its analyses.
func analyze(ctx context.Context, scn *scenario.Spec, opt options, reg *telemetry.Registry) error {
	traceDepth := opt.traceDepth
	if traceDepth == 0 && opt.traceOut != "" {
		traceDepth = 4096
	}
	built, err := scn.Build(scenario.BuildOptions{
		Telemetry:      reg,
		TraceDecisions: traceDepth,
		DisableIndex:   opt.noIndex,
	})
	if err != nil {
		return err
	}
	env := built.Env
	env.Ctx = ctx
	if err := serveTelemetry(ctx, opt, reg, env.Trace()); err != nil {
		return err
	}
	r := &runner{ctx: ctx, opt: opt, reg: reg, built: built, env: env, save: opt.saveObs}
	if r.save == "" {
		r.save = scn.Outputs.Observations
	}
	if err := r.analyses(); err != nil {
		return err
	}
	if opt.traceOut != "" {
		if err := dumpTrace(env, opt.traceOut); err != nil {
			return err
		}
	}
	if opt.verbose {
		printPropagationSkips(env)
	}
	return nil
}

// runner carries one run's state through the stage table.
type runner struct {
	ctx   context.Context
	opt   options
	reg   *telemetry.Registry
	built *scenario.Built
	env   *experiments.Env
	// save is where the observation campaign is written: -save-obs,
	// else the spec's outputs.observations.
	save string
	// The consumers of the observation campaign, which observe runs
	// once, before the first stage that prints what they gathered.
	observed bool
	aoe      *core.AOEAccumulator
	azimuth  *core.AzimuthAccumulator
	launch   *core.LaunchAccumulator
	sunlit   *core.SunlitAccumulator
	dataset  *core.DatasetBuilder // model's and recovery's
	ranks    scenario.RecoveryRanks
}

// stage is one analysis. flags are the flags the stage reads that not
// every analysis reads; the stages that read -load-obs are the ones
// that read the observation campaign it replays.
type stage struct {
	flags []string
	run   func(*runner) error
}

// stages is the one analysis table, keyed by the spec's analysis
// names; scenario.Analyses gives the run order.
var stages = map[string]stage{
	"fig2":     {nil, (*runner).fig2},
	"stats":    {nil, (*runner).stats},
	"fig3":     {[]string{"dir"}, (*runner).fig3},
	"ident":    {[]string{"dir"}, (*runner).ident},
	"aoe":      {[]string{"load-obs"}, func(r *runner) error { return printed(printAOE)(r.aoe.Finalize()) }},
	"azimuth":  {[]string{"load-obs"}, func(r *runner) error { return printed(printAzimuth)(r.azimuth.Finalize()) }},
	"launch":   {[]string{"load-obs"}, func(r *runner) error { return printed(printLaunch)(r.launch.Finalize()) }},
	"sunlit":   {[]string{"load-obs"}, func(r *runner) error { return printed(printSunlit)(r.sunlit.Finalize()) }},
	"model":    {[]string{"load-obs", "save-model", "full-grid"}, (*runner).model},
	"recovery": {[]string{"load-obs"}, (*runner).recovery},
	"ext":      {nil, (*runner).ext},
	"drift":    {[]string{"predict-addr"}, (*runner).drift},
}

// readers lists, in run order, the analyses that read flag; none means
// every run reads it.
func readers(flag string) []string {
	var names []string
	for _, name := range scenario.Analyses {
		if slices.Contains(stages[name].flags, flag) {
			names = append(names, name)
		}
	}
	return names
}

// printed adapts a figure printer to a stage body.
func printed[T any](print func(T)) func(T, error) error {
	return func(a T, err error) error {
		if err == nil {
			print(a)
		}
		return err
	}
}

// analyses prints the run banner and runs the spec's analyses in run
// order. The output carries no wall-clock figures: two runs of the
// same spec print the same bytes.
func (r *runner) analyses() error {
	spec := r.built.Spec
	fmt.Printf("==== scenario %s ====\n", spec.Name)
	if spec.Description != "" {
		fmt.Printf("# %s\n", spec.Description)
	}
	preset := ""
	if spec.Constellation.Preset != "" {
		preset = spec.Constellation.Preset + ", "
	}
	fmt.Printf("# constellation: %s%d satellites; terminals: %d; seed %d; %d slots\n",
		preset, r.env.Cons.Len(), len(r.env.Terminals), spec.Seed, r.built.Slots)
	for _, name := range scenario.Analyses {
		if !spec.AnalysisEnabled(name) {
			continue
		}
		if slices.Contains(stages[name].flags, "load-obs") && !r.observed {
			if err := r.observe(); err != nil {
				return err
			}
		}
		fmt.Printf("\n---- %s ----\n", name)
		if err := stages[name].run(r); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if !r.observed && r.save != "" {
		return r.observe()
	}
	return nil
}

// observe runs the shared observation campaign once, into the selected
// stages' consumers: it replays -load-obs, else streams one oracle
// campaign (into the save file too, as the observations arrive).
func (r *runner) observe() error {
	r.observed = true
	r.aoe, r.azimuth, r.sunlit = core.NewAOEAccumulator(27), core.NewAzimuthAccumulator(27), core.NewSunlitAccumulator(27)
	r.launch = core.NewLaunchAccumulator("New York") // the paper leaves the obstructed site out of the mean
	r.dataset = core.NewDatasetBuilder()
	on := r.built.Spec.AnalysisEnabled
	var feed []func(core.Observation) error
	for _, c := range []struct {
		on  bool
		add func(core.Observation) error
	}{
		{on("aoe"), r.aoe.Add}, {on("azimuth"), r.azimuth.Add}, {on("launch"), r.launch.Add},
		{on("sunlit"), r.sunlit.Add}, {on("model") || on("recovery"), r.dataset.Add}, {on("recovery"), r.ranks.Add},
	} {
		if c.on {
			feed = append(feed, c.add)
		}
	}
	if load := r.opt.loadObs; load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		// Replay the trace record by record: a multi-gigabyte capture
		// decodes in O(1) memory beyond what the consumers gather.
		dec := traceio.NewDecoder[core.Observation](f)
		total, served := 0, 0
		for {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			o, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			total++
			if o.ChosenIdx < 0 {
				continue
			}
			served++
			for _, add := range feed {
				if err := add(o); err != nil {
					return err
				}
			}
		}
		fmt.Printf("\n# loaded %d observations from %s (%d records, %d without a chosen satellite)\n",
			served, load, total, total-served)
		return nil
	}
	var save *os.File
	var enc *traceio.Encoder[core.Observation]
	if r.save != "" {
		var err error
		if save, err = os.Create(r.save); err != nil {
			return err
		}
		defer save.Close() // error paths; the success path checks Close
		// The file fills as the campaign runs, with no buffering.
		enc = traceio.NewEncoder[core.Observation](save)
		feed = append(feed, func(o core.Observation) error { return enc.Encode(&o) })
	}
	st, err := r.env.StreamObservations(r.built.Slots, feed...)
	if err != nil {
		return err
	}
	if save != nil {
		if err := enc.Flush(); err != nil {
			return err
		}
		if err := save.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("\n# %d observations from the %d-slot oracle campaign\n", st.Served, r.built.Slots)
	printCampaignStats(st)
	if r.save != "" {
		fmt.Printf("# wrote observations to %s\n", r.save)
	}
	return nil
}

// recovery runs the planted-preference recovery experiment on the
// spec's observations and reports the planted ordering vs what the
// behavioral effects and the forest recovered, with a PASS/FAIL
// verdict.
func (r *runner) recovery() error {
	spec := r.built.Spec
	planted, ok := spec.PlantedWeights()
	if !ok {
		return fmt.Errorf("no planted scheduler weights in the spec")
	}
	d, err := r.dataset.Finalize()
	if err != nil {
		return err
	}
	cfg := experiments.QuickModelConfig(spec.Seed)
	cfg.Workers, cfg.Metrics = r.env.Workers, ml.NewMetrics(r.env.Telemetry)
	res, err := scenario.RunPreferenceRecovery(r.ctx, &r.ranks, d, planted, cfg)
	if err != nil {
		return err
	}
	fmt.Println("planted-preference recovery: §5 effects + §6 forest vs the planted weights")
	fmt.Printf("planted weights: elevation=%.2f sunlit=%.2f recency=%.2f (order %s)\n",
		res.Planted.Elevation, res.Planted.Sunlit, res.Planted.Recency, strings.Join(res.PlantedOrder, " > "))
	fmt.Println("axis\tobserved_effect\tforest_effect")
	for _, ax := range scenario.RecoveryAxes {
		fmt.Printf("%s\t%+.3f\t%+.3f\n", ax, res.ObservedEffects[ax], res.ForestEffects[ax])
	}
	fmt.Printf("behavioral order: %s [%s]\n", strings.Join(res.ObservedOrder, " > "), passFail(res.ObservedOrderRecovered))
	fmt.Printf("forest order:     %s [%s]\n", strings.Join(res.ForestOrder, " > "), passFail(res.OrderRecovered))
	fmt.Printf("model top-1 %.3f vs baseline %.3f [%s]\n", res.ModelTop1, res.BaselineTop1, passFail(res.ModelBeatsBaseline))
	fmt.Printf("recovery over %d rows: %s\n", res.Rows,
		passFail(res.ObservedOrderRecovered && res.OrderRecovered && res.ModelBeatsBaseline))
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// printPropagationSkips reports, once per distinct satellite, the
// propagation failures that silently shrank snapshots during the run.
func printPropagationSkips(env *experiments.Env) {
	total, bySat := env.Cons.PropagationSkips()
	if total == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "repro: %d propagation skips across %d satellites:\n", total, len(bySat))
	ids := make([]int, 0, len(bySat))
	for id := range bySat {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "repro:   sat %d: %s\n", id, bySat[id])
	}
}

// dumpTrace writes the environment's decision ring as JSONL.
func dumpTrace(env *experiments.Env, path string) error {
	tr := env.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repro: wrote %d of %d recorded decisions to %s\n", tr.Len(), tr.Recorded(), path)
	return nil
}

// printTelemetry prints the -v end-of-run summary: every counter and
// gauge in sorted order, histograms as count/mean.
func printTelemetry(reg *telemetry.Registry) {
	s := reg.Snapshot()
	fmt.Println("==== telemetry ====")
	keys, vals := s.CountersWithPrefix("")
	for i, k := range keys {
		fmt.Printf("%-52s %12d\n", k, vals[i])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Printf("%-52s %12d\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.FloatGauge) {
		fmt.Printf("%-52s %12.2f\n", k, s.FloatGauge[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Printf("%-52s count=%d mean=%.6g\n", k, h.Count, mean)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *runner) fig2() error {
	res, err := r.env.Fig2("Madrid", 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2: RTT trace, %s terminal, 1 probe / 20 ms, 2 minutes\n", res.Terminal)
	fmt.Printf("slot boundaries at seconds past the minute: %v (paper: [12 27 42 57])\n", res.BoundarySeconds)
	fmt.Printf("per-slot median RTT (ms):")
	for _, m := range res.WindowMedians {
		fmt.Printf(" %.1f", m)
	}
	fmt.Println()
	fmt.Println("time_s\trtt_ms\tlost")
	start := res.Samples[0].T
	for i, s := range res.Samples {
		if i%25 != 0 { // print every 0.5 s to keep the table readable
			continue
		}
		lost := 0
		if s.Lost {
			lost = 1
		}
		fmt.Printf("%.2f\t%.2f\t%d\n", s.T.Sub(start).Seconds(), s.RTTms, lost)
	}
	return nil
}

func (r *runner) stats() error {
	res, err := r.env.WindowStats(5 * time.Minute)
	if err != nil {
		return err
	}
	fmt.Println("§3 Mann-Whitney U between consecutive 15 s windows (paper: p < .05 everywhere)")
	fmt.Println("terminal\twindows\tcompared\tsignificant\tmedian_p")
	for _, r := range res {
		fmt.Printf("%s\t%d\t%d\t%.0f%%\t%.2g\n", r.Terminal, r.Windows, r.Comparisons, r.SignificantFrac*100, r.MedianP)
	}
	return nil
}

func (r *runner) fig3() error {
	res, err := r.env.Fig3("Iowa")
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: obstruction maps (written as PNGs)")
	for _, m := range []struct {
		name string
		m    *obstruction.Map
	}{{"fig3b_prev.png", res.Prev}, {"fig3c_cur.png", res.Cur}, {"fig3d_xor.png", res.Diff}, {"fig3e_filled.png", res.Filled}} {
		path, err := r.writePNG(m.name, m.m)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d painted pixels)\n", path, m.m.Count())
	}
	fmt.Printf("recovered polar-plot parameters: center=(%.1f, %.1f) radius=%.1f px\n",
		res.Recovered.CenterX, res.Recovered.CenterY, res.Recovered.RadiusPx)
	fmt.Println("(paper: center 62x62 1-indexed = 61x61 0-indexed, radius 45 px)")
	return nil
}

// writePNG writes one image into -dir and returns its path.
func (r *runner) writePNG(name string, img interface{ EncodePNG(io.Writer) error }) (string, error) {
	path := filepath.Join(r.opt.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := img.EncodePNG(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ident validates §4 identification over the spec's ident slots: one
// sky-plot PNG, the DTW matcher against ground truth, and the naive
// matcher as an ablation.
func (r *runner) ident() error {
	env, slots := r.env, r.built.IdentSlots
	fmt.Printf("§4 identification validation over %d slots (DTW vs ground truth; paper pilot: >99%% of 500)\n", slots)
	// Render one manual-validation sky plot (the paper's pilot-study
	// view): observed trajectory over all candidates, winner highlighted.
	term := env.Terminals[0]
	slot := env.Start().Add(7 * 15 * time.Second)
	for _, a := range env.Sched.AppendAllocate(nil, slot) {
		if a.Terminal != term.Name || a.SatID == 0 {
			continue
		}
		observed, err := env.Ident.ServingTrack(a.SatID, term.VantagePoint, slot)
		if err != nil {
			return err
		}
		snap := env.Snaps.Acquire(env.Cons, slot)
		cands, dropped := env.Ident.CandidatePolarTracks(snap, term.VantagePoint, slot)
		snap.Release()
		plot, err := skyplot.Validation(400, observed, cands, a.SatID)
		if err != nil {
			return err
		}
		path, err := r.writePNG("ident_validation.png", plot)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d candidate tracks, winner %d highlighted)\n", path, len(cands), a.SatID)
		if dropped > 0 {
			fmt.Printf("%d in-view candidates left out of the plot: propagation failed mid-slot\n", dropped)
		}
	}
	res, err := env.IdentValidation(slots, false)
	if err != nil {
		return err
	}
	fmt.Printf("DTW matcher:   attempted=%d correct=%d failed=%d accuracy=%.1f%% median_margin=%.2f\n",
		res.Attempted, res.Correct, res.Failed, res.Accuracy*100, res.MedianMargin)
	naive, err := env.IdentValidation(slots, true)
	if err != nil {
		return err
	}
	fmt.Printf("naive matcher: attempted=%d correct=%d accuracy=%.1f%% (ablation)\n",
		naive.Attempted, naive.Correct, naive.Accuracy*100)
	return nil
}

func printAOE(a *core.AOEAnalysis) {
	fmt.Println("Figure 4: AOE of available (dotted) vs selected (solid) satellites")
	fmt.Printf("median AOE lift (chosen - available), mean over terminals: %.1f deg (paper: 22.9)\n", a.MedianLiftDeg)
	fmt.Printf("chosen with AOE in [45,90]: %.0f%% (paper: 80%%); available: %.0f%% (paper: 30%%)\n",
		a.HighBandChosenFrac*100, a.HighBandAvailableFrac*100)
	printCDFs(a.PerTerminal, "aoe_deg")
}

func printAzimuth(a *core.AzimuthAnalysis) {
	fmt.Println("Figure 5: azimuths of available (dotted) vs selected (solid) satellites")
	fmt.Println("terminal\tnorth_chosen\tnorth_avail\tnw_chosen")
	for _, tc := range a.PerTerminal {
		name := tc.Terminal
		fmt.Printf("%s\t%.0f%%\t%.0f%%\t%.1f%%\n", name,
			a.NorthChosenFrac[name]*100, a.NorthAvailableFrac[name]*100, a.NWChosenFrac[name]*100)
	}
	fmt.Println("(paper: north chosen 82% vs available 58%; Ithaca NW 9.7% vs 55.4% elsewhere)")
	printCDFs(a.PerTerminal, "azimuth_deg")
}

func printLaunch(a *core.LaunchAnalysis) {
	fmt.Println("Figure 6: probability of picking a satellite from a launch vs launch date")
	fmt.Printf("mean Pearson r (excluding %v): %.2f (paper: 0.41)\n", a.Excluded, a.MeanPearson)
	// PerTerminal and Pearson are maps; iterate sorted so repeated runs
	// diff clean.
	names := make([]string, 0, len(a.PerTerminal))
	for name := range a.PerTerminal {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if r, ok := a.Pearson[name]; ok {
			fmt.Printf("%s: r=%.2f\n", name, r)
		}
	}
	fmt.Println("terminal\tlaunch_month\tpicked\tavailable\tratio")
	for _, name := range names {
		for _, b := range a.PerTerminal[name] {
			fmt.Printf("%s\t%s\t%d\t%d\t%.4f\n", name, b.Month.Format("2006-01"), b.Picked, b.Available, b.Ratio)
		}
	}
}

func printSunlit(a *core.SunlitAnalysis) {
	fmt.Println("Figure 7 / §5.3: sunlit vs dark satellites")
	fmt.Printf("mixed slots (>=1 sunlit and >=1 dark): %d\n", a.MixedSlots)
	fmt.Printf("sunlit picked in mixed slots: %.1f%% (paper: 72.3%%)\n", a.SunlitPickRate*100)
	fmt.Printf("min dark share when a dark satellite was picked: %.0f%% (paper: >= 35%%)\n", a.MinDarkShareWhenDarkPicked*100)
	fmt.Printf("chosen dark above 60 deg AOE: %.0f%% (paper: 82%%); chosen sunlit: %.0f%% (paper: 54%%)\n",
		a.HighAOEFracDark*100, a.HighAOEFracSunlit*100)
	fmt.Printf("median chosen-dark AOE minus chosen-sunlit: %.1f deg (paper: ~29)\n", a.DarkChosenAOELiftDeg)
}

// drift runs the online-inference drift campaign: learn
// the default scheduler, flip the weights at mid-campaign, and report
// detection and recovery. With -predict-addr the slot stream feeds a
// running predictd over dishrpc; otherwise a synchronous in-process
// service keeps the output deterministic.
func (r *runner) drift() error {
	spec, opt := r.built.Spec, r.opt
	var scorer scenario.OnlineScorer
	if opt.predictAddr != "" {
		c, err := predict.Dial(opt.predictAddr)
		if err != nil {
			return err
		}
		defer c.Close()
		fmt.Printf("online inference served by predictd at %s\n", opt.predictAddr)
		scorer = predict.NewRemoteScorer(c)
	} else {
		svc, err := predict.NewService(predict.Config{
			Window: 512, RefitEvery: 128, MinFit: 256,
			Trees: 20, MaxDepth: 10,
			Seed: spec.Seed, Workers: r.env.Workers,
			Synchronous: true, Registry: r.reg,
		})
		if err != nil {
			return err
		}
		scorer = svc
	}
	res, err := scenario.RunDrift(r.ctx, scenario.DriftConfig{
		Spec:      spec,
		Slots:     r.built.Slots,
		Scorer:    scorer,
		Offline:   opt.predictAddr == "", // remote runs skip the batch cross-check
		Telemetry: r.reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("online inference under a mid-campaign scheduler update: weights flip at slot %d of %d\n",
		res.FlipAt, res.Slots)
	fmt.Printf("stationary:  windowed top-1 %.1f%%  top-5 %.1f%%  (%d refits, %d records scored)\n",
		res.PreTop1*100, res.PreTopK*100, res.Refits, res.Scored)
	fmt.Printf("after flip:  windowed top-1 floor %.1f%%\n", res.MinPostTop1*100)
	detect := "FAIL"
	if res.DetectSlots >= 0 {
		detect = fmt.Sprintf("detected %d slots after the flip", res.DetectSlots)
	}
	clear := "never cleared [FAIL]"
	if res.ClearSlots >= 0 {
		clear = fmt.Sprintf("cleared at slot %d after retraining", res.ClearSlots)
	}
	fmt.Printf("drift flag:  %s, %s (%d events)\n", detect, clear, res.DriftEvents)
	fmt.Printf("recovery:    windowed top-1 %.1f%% at campaign end\n", res.FinalTop1*100)
	if res.OfflineTop1 > 0 {
		fmt.Printf("offline §6 cross-check on the stationary phase: model top-1 %.1f%% vs baseline %.1f%%\n",
			res.OfflineTop1*100, res.OfflineBaselineTop1*100)
	}
	ok := res.DetectSlots >= 0 && res.ClearSlots >= 0 &&
		res.PreTop1-res.MinPostTop1 > 0.1 && res.FinalTop1 > res.MinPostTop1
	fmt.Printf("drift experiment: %s\n", passFail(ok))
	return nil
}

// printCampaignStats surfaces what the campaign dropped on the way to
// the analyses, by skip reason.
func printCampaignStats(st *core.CampaignStats) {
	fmt.Printf("# campaign: %d records (%d slots x %d terminals), %d served, %d dropped\n",
		st.Records, st.Slots, st.Terminals, st.Served, st.Dropped())
	if st.PropagationSkips > 0 {
		fmt.Printf("#   %6d satellite-slots lost to propagation failures\n", st.PropagationSkips)
	}
	for _, r := range sortedKeys(st.Skips) {
		fmt.Printf("#   %6d x %s\n", st.Skips[r], r)
	}
}

func (r *runner) model() error {
	cfg := experiments.QuickModelConfig(r.env.Seed + 1)
	if r.opt.fullGrid {
		cfg = core.ModelConfig{Seed: r.env.Seed + 1} // defaults = full protocol
	}
	cfg.Workers, cfg.Metrics = r.env.Workers, ml.NewMetrics(r.env.Telemetry)
	d, err := r.dataset.Finalize()
	if err != nil {
		return err
	}
	res, err := core.TrainModelCtx(r.ctx, d, cfg)
	if err != nil {
		return err
	}
	if saveMdl := r.opt.saveMdl; saveMdl != "" {
		f, err := os.Create(saveMdl)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Forest.Save(f); err != nil {
			return err
		}
		fmt.Printf("wrote trained forest to %s\n", saveMdl)
	}
	fmt.Println("Figure 8: top-k accuracy, RF model vs most-populated-cluster baseline")
	fmt.Printf("train rows: %d, holdout rows: %d, best config: %d trees depth %d (CV top-5 %.1f%%)\n",
		res.TrainRows, res.HoldoutRows, res.BestConfig.Config.NumTrees, res.BestConfig.Config.Tree.MaxDepth, res.BestConfig.Score*100)
	fmt.Println("k\tmodel\tbaseline")
	for k := range res.ModelTopK {
		fmt.Printf("%d\t%.1f%%\t%.1f%%\n", k+1, res.ModelTopK[k]*100, res.BaselineTopK[k]*100)
	}
	fmt.Println("(paper: model 65% at k=5 vs baseline 22%)")
	fmt.Println("top feature importances (gini):")
	for i, fi := range res.Importances {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-14s %.4f\n", fi.Name, fi.Importance)
	}
	return nil
}

func (r *runner) ext() error {
	slots := r.built.Slots
	half := (slots + 1) / 2 // rounded up: -slots 1 runs one slot, not zero
	fmt.Println("§8 extensions: hemisphere generalization, GSO ablation, load hypothesis")

	hemi, err := r.built.HemisphereComparison(half)
	if err != nil {
		return err
	}
	fmt.Println("\nhemisphere generalization (pick skew = chosen-north − available-north):")
	fmt.Println("terminal\tlat\tchosen_north\tavail_north\tskew")
	for _, s := range append(hemi.Northern, hemi.Southern...) {
		fmt.Printf("%s\t%.1f\t%.2f\t%.2f\t%+.2f\n", s.Terminal, s.LatDeg, s.NorthFrac, s.AvailNorthFrac, s.NorthSkew())
	}
	fmt.Println("(expected: positive at unobstructed >40N sites, negative at Sydney, ~0 at the equator;")
	fmt.Println(" Punta Arenas sits at the 53-degree shell's coverage edge, where the elevation preference dominates)")

	gso, err := r.built.GSOAblation(half)
	if err != nil {
		return err
	}
	fmt.Printf("\nGSO ablation: chosen-north fraction %.2f with the exclusion zone, %.2f without (%d slots)\n",
		gso.NorthFracWithGSO, gso.NorthFracWithoutGSO, gso.Slots)

	load, err := r.built.LoadSensitivity(slots)
	if err != nil {
		return err
	}
	fmt.Printf("\nload hypothesis: model top-5 accuracy %.1f%% with hidden load + noise, %.1f%% without load, %.1f%% fully deterministic (%d rows)\n",
		load.WithHiddenLoad*100, load.WithoutHiddenLoad*100, load.Deterministic*100, load.Rows)
	fmt.Printf("                 top-1: %.1f%% / %.1f%% / %.1f%%\n",
		load.WithHiddenLoadTop1*100, load.WithoutHiddenLoadTop1*100, load.DeterministicTop1*100)
	fmt.Println("(the paper predicts unobservable factors bound the model; removing them should help)")

	ho, err := r.env.HandoverAnalysis("Iowa", 10*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("\nhandover loss: %.1f%% in the first 300 ms of a slot vs %.1f%% steady state (%d probes)\n",
		ho.EarlyLoss*100, ho.SteadyLoss*100, ho.Probes)

	mo, err := r.env.MotionVsReallocation("Iowa", half)
	if err != nil {
		return err
	}
	if mo.Handovers == 0 {
		fmt.Printf("\nmotion vs reallocation (§3 argument): not computable (%d served slots, %d handovers at Iowa)\n",
			mo.Slots, mo.Handovers)
		return nil
	}
	fmt.Printf("\nmotion vs reallocation (§3 argument): within-slot propagation drift %.3f ms median vs %.3f ms reallocation jump (ratio %.0fx, %d slots, %d handovers)\n",
		mo.MedianMotionDriftMs, mo.MedianReallocJumpMs, mo.Ratio, mo.Slots, mo.Handovers)
	return nil
}

func printCDFs(cdfs []core.TerminalCDF, xName string) {
	fmt.Printf("terminal\tseries\t%s\tcdf\n", xName)
	for _, tc := range cdfs {
		for _, p := range tc.Available {
			fmt.Printf("%s\tavailable\t%.1f\t%.3f\n", tc.Terminal, p[0], p[1])
		}
		for _, p := range tc.Chosen {
			fmt.Printf("%s\tchosen\t%.1f\t%.3f\n", tc.Terminal, p[0], p[1])
		}
	}
}
