// Command perfbench is the trusted-path benchmark: it assembles the
// provider (or a router-fronted fleet) in-process from the constructors
// cmd/tpserver uses, serves it on loopback TCP, drives it with a seeded
// load generator over wire.Client, checks every run with a correctness
// oracle, and prints one JSON result line.
//
//	perfbench --workload quote-rsa|session-tcp|fleet-tcp --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then again with every layer's public
// entry points wrapped in spans, and reports the per-layer metrics. See
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
)

// workloadSpec defines one workload. Every --second of a run is one
// round carrying a fixed share of traffic, so the state a round builds
// up does not depend on --seconds.
type workloadSpec struct {
	fleet  bool
	scheme string
	// closed loop (quote-rsa): confirmations per round.
	perRound int
	// open loop: users (one account and one session each) and the
	// offered arrival rate in transactions per second; a round offers
	// one second of arrivals.
	users int
	rate  float64
}

func (w workloadSpec) open() bool { return w.users > 0 }

// The open-loop rates are about a fifth (session-tcp) and a third
// (fleet-tcp) of the capacity measured on a 2-vCPU host, lower than half
// because host steal near capacity turns into tens of milliseconds of
// queueing (see README.md).
var workloads = map[string]workloadSpec{
	"quote-rsa":   {scheme: "rsa", perRound: 700},
	"session-tcp": {scheme: "ed25519", users: 200, rate: 500},
	"fleet-tcp":   {fleet: true, scheme: "ed25519", users: 200, rate: 500},
}

const (
	openingBalance = 1 << 40
	quoteAccounts  = 64
	// An open-loop run is valid only while the generator keeps to its
	// schedule: its median lateness at most lagShare of tx_p50_ms and its
	// 99th percentile at most lagBound. A later generator measures
	// itself, not the system.
	lagShare = 0.10
	lagBound = 20 * time.Millisecond
	// setupProbes is how many extra set-ups, each torn down at once,
	// follow every round of the untraced pass, so that setup_s is a
	// median of setupProbes+1 set-ups per round.
	setupProbes = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int // 0 or 1
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: quote-rsa, session-tcp or fleet-tcp")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "rounds to run, each with one second's share of the traffic")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run traced and report the per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for data dirs, reports and span dumps")
	flag.Parse()

	out, err := run(o)
	var line []byte
	if err == nil {
		line, err = json.Marshal(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is one set-up, one fixed-size batch of traffic, its oracle and
// its teardown.
type round struct {
	res        *runResult
	accepted   int
	setups     []float64     // seconds: the round's own set-up, then the probes'
	setupSteal time.Duration // host steal during the set-ups
	heapMB     float64
	heapBaseMB float64         // live heap after set-up and warm-up, before the traffic
	probes     []time.Duration // the speed probe, run just before and just after the round
	oracle     error
	commits    int // group commits during the timed traffic
	committed  int // requests those commits carried
	pendingEnd int
	sessions   int
	certHits   uint64
	certMisses uint64
}

// steal is the share of the host's CPU capacity stolen during the
// round's timed traffic; it is printed with each round.
func (r *round) steal() float64 {
	return ratio(r.res.meter.steal.Seconds(), r.res.meter.wall.Seconds()*float64(runtime.NumCPU()))
}

// pass is one measured series of rounds.
type pass struct {
	keygen  time.Duration // key generation and platform enrollment, once
	samples durations     // every round's latency and lag samples
	rounds  []round       // in run order
	lt      *layerTimes   // traced pass only
}

func run(o options) (*result, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown --workload %q (choose one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	workDir := filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	prov, err := provenance(o, workDir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d rounds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.seconds, o.trace)
	fmt.Printf("provenance %s\n", prov)

	base, err := runPass(o, spec, filepath.Join(workDir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	if err := checkLag(spec, base); err != nil {
		return nil, err
	}
	out := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range base.rounds {
		out.Attempted += r.res.attempted
		out.Failed += r.res.failed
		if r.oracle != nil {
			out.Correct = false
			logf("%v", r.oracle)
		}
	}
	if o.trace == 0 {
		printEndToEnd(out, base)
		return out, nil
	}

	tr := newTracer()
	traced, err := runPass(o, spec, filepath.Join(workDir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	for _, r := range traced.rounds {
		if r.oracle != nil {
			out.Correct = false
			logf("traced pass: %v", r.oracle)
		}
	}
	reports := filepath.Join(o.work, "reports")
	if err := os.MkdirAll(reports, 0o755); err != nil {
		return nil, err
	}
	dump := filepath.Join(reports, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.dump(dump); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	printLayers(out, base, traced, dump)
	return out, nil
}

// checkLag marks an open-loop run invalid when the generator fell
// behind its schedule: its latencies would then measure the generator.
func checkLag(spec workloadSpec, p *pass) error {
	if !spec.open() {
		return nil
	}
	lag := p.pooled(lags)
	if p50, tx := lag.p50(), p.pooled(latencies).p50(); float64(p50) > lagShare*float64(tx) {
		return fmt.Errorf("invalid run: generator lag p50 %.3f ms exceeds %.0f%% of tx p50 %.3f ms",
			ms(p50), 100*lagShare, ms(tx))
	}
	if p99 := lag.p99(); p99 > lagBound {
		return fmt.Errorf("invalid run: generator lag p99 %.2f ms exceeds its %.0f ms bound",
			ms(p99), ms(lagBound))
	}
	return nil
}

// runPass runs --seconds rounds, each on a freshly set-up system with
// its fixed share of the traffic.
func runPass(o options, spec workloadSpec, dir string, tr *tracer) (*pass, error) {
	scheme, err := cryptoutil.SchemeByName(spec.scheme)
	if err != nil {
		return nil, err
	}
	n := spec.perRound
	naccounts := quoteAccounts
	if spec.open() {
		n = int(spec.rate)
		naccounts = spec.users
	}
	accounts := make([]string, naccounts)
	for i := range accounts {
		accounts[i] = fmt.Sprintf("acct-%05d", i)
	}
	start := time.Now()
	id, err := newIdentity(scheme, o.seed)
	if err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	speed, err := newSpeedProbe(id.provKey)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	// The samples of every round go into one array allocated before the
	// first round, so keeping them adds nothing to a later round's heap.
	p := &pass{keygen: time.Since(start), samples: make(durations, 0, 2*o.seconds*n)}
	for i := 0; i < o.seconds; i++ {
		before := speed.measure()
		cfg := sysConfig{
			fleet: spec.fleet, scheme: scheme, accounts: accounts, balance: openingBalance,
			seed: o.seed, tr: tr, dataDir: filepath.Join(dir, fmt.Sprintf("round-%d", i)),
		}
		r, err := runRound(cfg, id, spec, n, sim.NewRand(o.seed).Fork(fmt.Sprintf("round-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.probes = append(before, speed.measure()...)
		os.RemoveAll(cfg.dataDir)
		if tr == nil {
			for j := 0; j < setupProbes; j++ {
				cfg.dataDir = filepath.Join(dir, fmt.Sprintf("round-%d-setup-%d", i, j))
				if err := r.probeSetup(cfg, id); err != nil {
					return nil, fmt.Errorf("round %d: %w", i, err)
				}
				os.RemoveAll(cfg.dataDir)
			}
		}
		r.res.lat, r.res.lag = p.store(r.res.lat), p.store(r.res.lag)
		p.rounds = append(p.rounds, *r)
	}
	if tr != nil {
		p.lt = tr.analyze()
	}
	return p, nil
}

// setUp builds one system, timed as a set-up, with the host steal
// around it.
func (r *round) setUp(cfg sysConfig, id *identity) (*system, error) {
	steal0 := hostSteal()
	start := time.Now()
	sys, err := newSystem(cfg, id, genConns)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	r.setupSteal += hostSteal() - steal0
	return sys, nil
}

// probeSetup sets a system up and tears it down again at once.
func (r *round) probeSetup(cfg sysConfig, id *identity) error {
	sys, err := r.setUp(cfg, id)
	if err != nil {
		return err
	}
	if err := sys.close(); err != nil {
		return fmt.Errorf("probe shutdown: %w", err)
	}
	return nil
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / 1e6
}

// runRound sets one system up (timed as a set-up), drives n transactions
// through it, checks the oracle and tears it down.
func runRound(cfg sysConfig, id *identity, spec workloadSpec, n int, rng *sim.Rand) (*round, error) {
	out := &round{}
	sys, err := out.setUp(cfg, id)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	g := newGen(sys, rng, cfg.tr)
	var users []*user
	var plan []*arrival
	if spec.open() {
		if users, err = g.newUsers(cfg.accounts); err != nil {
			return nil, err
		}
		plan = g.schedule(users, cfg.accounts, n, spec.rate)
	}
	out.heapBaseMB = liveHeapMB()

	p := sys.provider()
	commits0, committed0 := commitTotals(p.CommitBatchSizes())
	hits0, misses0 := p.Verifier().CertCacheStats()
	if cfg.tr != nil {
		cfg.tr.on.Store(true)
	}
	var res *runResult
	if spec.open() {
		res = g.runOpen(users, plan)
	} else {
		res = g.runQuote(n, cfg.accounts)
	}
	if cfg.tr != nil {
		cfg.tr.on.Store(false)
	}
	out.res = res
	commits1, committed1 := commitTotals(p.CommitBatchSizes())
	out.commits, out.committed = commits1-commits0, committed1-committed0
	hits1, misses1 := p.Verifier().CertCacheStats()
	out.certHits, out.certMisses = hits1-hits0, misses1-misses0
	out.pendingEnd = p.PendingChallenges()
	out.sessions = p.LiveSessions()

	out.heapMB = liveHeapMB()

	out.oracle = checkProvider(p, res, cfg.accounts, openingBalance)
	primary, err := stateOf(p, cfg.accounts)
	if err != nil {
		return nil, err
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if spec.fleet && out.oracle == nil {
		out.oracle = checkFollowers(sys, primary)
	}
	// Later rounds must not carry this one's bookkeeping in their heap.
	out.accepted = len(res.accepted)
	res.accepted, res.submitted = nil, nil
	return out, nil
}

// commitTotals sums a group-commit size histogram into commits and the
// requests they carried.
func commitTotals(sizes map[int]int) (commits, requests int) {
	for size, count := range sizes {
		commits += count
		requests += size * count
	}
	return commits, requests
}

// store copies a round's samples into the pass's sample array.
func (p *pass) store(d durations) durations {
	start := len(p.samples)
	p.samples = append(p.samples, d...)
	return p.samples[start:len(p.samples):len(p.samples)]
}

// pooled gathers one sample series over the rounds.
func (p *pass) pooled(get func(*runResult) durations) durations {
	var all durations
	for i := range p.rounds {
		all = append(all, get(p.rounds[i].res)...)
	}
	return all
}

// perRound is the median over the rounds of a per-round figure.
func (p *pass) perRound(get func(*round) float64) float64 {
	v := make([]float64, len(p.rounds))
	for i := range p.rounds {
		v[i] = get(&p.rounds[i])
	}
	return median(v)
}

// sum adds a per-round figure over the rounds.
func (p *pass) sum(get func(*round) float64) float64 {
	var t float64
	for i := range p.rounds {
		t += get(&p.rounds[i])
	}
	return t
}

func accepted(r *round) float64 { return float64(r.accepted) }

func latencies(r *runResult) durations { return r.lat }

func lags(r *runResult) durations { return r.lag }

// setups gathers the set-up times of every round.
func (p *pass) setups() []float64 {
	var v []float64
	for _, r := range p.rounds {
		v = append(v, r.setups...)
	}
	return v
}

// cpuPerConf is the median over rounds of process CPU time per
// accepted confirmation.
func cpuPerConf(p *pass) float64 {
	return p.perRound(func(r *round) float64 { return ratio(us(r.res.meter.cpu), accepted(r)) })
}

// probeUS is the median of every speed probe of the pass, in
// microseconds.
func probeUS(p *pass) float64 {
	var v []float64
	for _, r := range p.rounds {
		for _, d := range r.probes {
			v = append(v, us(d))
		}
	}
	return median(v)
}

// cpuRefPerConf is cpuPerConf scaled to the reference host's speed.
func cpuRefPerConf(p *pass) float64 {
	return cpuPerConf(p) * ratio(us(refProbe), probeUS(p))
}

// setupRef is the median set-up time scaled to the reference host's
// speed.
func setupRef(p *pass) float64 {
	return median(p.setups()) * ratio(us(refProbe), probeUS(p))
}

// confPerS is the median over rounds of accepted confirmations per
// second of timed wall time.
func confPerS(p *pass) float64 {
	return p.perRound(func(r *round) float64 { return ratio(accepted(r), r.res.meter.wall.Seconds()) })
}

// txP50 is the median over rounds of the round's median transaction
// time, in milliseconds.
func txP50(p *pass) float64 {
	return p.perRound(func(r *round) float64 { return ms(r.res.lat.p50()) })
}

func printEndToEnd(out *result, p *pass) {
	set := func(name, unit string, v float64, note string) {
		out.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("metric %-16s %14.4f %-5s %s\n", name, v, unit, note)
	}
	lat := p.pooled(latencies)
	set("cpu_ref_us_per_conf", "us", cpuRefPerConf(p),
		fmt.Sprintf("(median of %d rounds: %.1f us/conf x %.0f us reference / %.1f us speed probe)",
			len(p.rounds), cpuPerConf(p), us(refProbe), probeUS(p)))
	set("heap_mb", "MB", p.perRound(func(r *round) float64 { return r.heapMB }), "(median of rounds; live heap after GC)")
	setups := p.setups()
	set("setup_s", "s", setupRef(p), fmt.Sprintf("(median of %d set-ups: %.3f ms x %.0f us reference / %.1f us speed probe)",
		len(setups), 1e3*median(setups), us(refProbe), probeUS(p)))
	// Wall-clock figures, reported per layer (e2e.*) with --trace 1:
	// they follow the host's speed and its neighbours, not only the code.
	fmt.Printf("conf_per_s %.1f 1/s (median of rounds; %.0f accepted over %.3f s timed; per-layer e2e.conf_per_s)\n",
		confPerS(p), p.sum(accepted), p.sum(func(r *round) float64 { return r.res.meter.wall.Seconds() }))
	fmt.Printf("tx_p50 %.4f ms (median of rounds; n=%d; per-layer e2e.tx_p50_ms)\n", txP50(p), len(lat))
	var attempted, failed float64
	for _, r := range p.rounds {
		attempted += float64(r.res.attempted)
		failed += float64(r.res.failed)
	}
	lag := p.pooled(lags)
	fmt.Printf("tx_p99 %.4f ms (n=%d, %d beyond; per-layer e2e.tx_p99_ms)\n", ms(lat.p99()), len(lat), len(lat)/100)
	fmt.Printf("failed_frac %.6f (%.0f of %.0f failed; %.0f retries)\n", ratio(failed, attempted), failed, attempted,
		p.sum(func(r *round) float64 { return float64(r.res.retries) }))
	for i, r := range p.rounds {
		fmt.Printf("round %d: setups %s s (host steal %.0f ms), %d accepted in %.3f s, tx p50 %.3f ms, p99 %.3f ms, cpu %.1f us/conf, speed probe %.0f us, heap %.2f MB (%.2f before traffic), host steal %.1f%%\n",
			i, fmtFloats(r.setups), ms(r.setupSteal), r.accepted, r.res.meter.wall.Seconds(), ms(r.res.lat.p50()), ms(r.res.lat.p99()),
			ratio(us(r.res.meter.cpu), accepted(&r)), us(durations(r.probes).p50()), r.heapMB, r.heapBaseMB, 100*r.steal())
	}
	passed := 0
	for _, r := range p.rounds {
		if r.oracle == nil {
			passed++
		}
	}
	fmt.Printf("oracle passed in %d of %d rounds\n", passed, len(p.rounds))
	fmt.Printf("key generation and enrollment %.3f s (once, not in setup_s)\n", p.keygen.Seconds())
	fmt.Printf("gen lag p50 %.3f ms, p99 %.3f ms (n=%d), mint %.3f s\n", ms(lag.p50()), ms(lag.p99()), len(lag),
		p.sum(func(r *round) float64 { return r.res.mint.Seconds() }))
}

func printLayers(out *result, base, traced *pass, dump string) {
	lt := traced.lt
	conf := traced.sum(accepted)
	per := func(v float64) float64 { return ratio(v, conf) }
	set := func(name, unit string, v float64) {
		out.Metrics[name] = metric{Value: v, Unit: unit}
	}
	set("wire.rtt_us.p50", "us", us(lt.rttAll.p50()))
	set("wire.rtt_us.p99", "us", us(lt.rttAll.p99()))
	set("wire.overhead_us.p50", "us", us(lt.overheadAll.p50()))
	set("wire.bytes_per_conf", "B", per(float64(lt.wireBytes)))
	set("wire.retries", "count", traced.sum(func(r *round) float64 { return float64(r.res.retries) }))
	for _, kind := range handleKinds {
		set("core.handle_us."+kind+".p50", "us", us(lt.handle[kind].p50()))
		set("core.handle_us."+kind+".p99", "us", us(lt.handle[kind].p99()))
	}
	commits := traced.sum(func(r *round) float64 { return float64(r.commits) })
	set("core.commit_cohort", "count", ratio(traced.sum(func(r *round) float64 { return float64(r.committed) }), commits))
	set("core.commits_per_conf", "count", per(commits))
	set("core.pending_end", "count", traced.perRound(func(r *round) float64 { return float64(r.pendingEnd) }))
	set("core.sessions_end", "count", traced.perRound(func(r *round) float64 { return float64(r.sessions) }))
	set("attest.sig_verify_us.p50", "us", us(lt.verify.p50()))
	set("attest.verifies_per_conf", "count", per(float64(len(lt.verify))))
	hits := traced.sum(func(r *round) float64 { return float64(r.certHits) })
	misses := traced.sum(func(r *round) float64 { return float64(r.certMisses) })
	set("attest.cert_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	set("store.fsync_us.p50", "us", us(lt.fsync.p50()))
	set("store.fsync_us.p99", "us", us(lt.fsync.p99()))
	set("store.fsyncs_per_conf", "count", per(float64(len(lt.fsync))))
	set("store.write_bytes_per_conf", "B", per(float64(lt.writeBytes)))
	set("store.snapshot_ms.p50", "ms", ms(lt.snapshot.p50()))
	set("store.snapshot_bytes", "B", float64(lt.snapshotBytes))
	set("fleet.router_hop_us.p50", "us", us(lt.routerSelfAll.p50()))
	set("fleet.follower_apply_us.p50", "us", us(lt.follower.p50()))
	set("fleet.follower_apply_us.p99", "us", us(lt.follower.p99()))
	set("fleet.ship_frames_per_conf", "count", per(float64(len(lt.follower))))

	// Runtime and generator figures come from the untraced pass: the
	// tracer's own allocations would otherwise be counted.
	bconf := base.sum(accepted)
	set("go.allocs_per_conf", "count", ratio(base.sum(func(r *round) float64 { return float64(r.res.meter.allocs) }), bconf))
	set("go.alloc_bytes_per_conf", "B", ratio(base.sum(func(r *round) float64 { return float64(r.res.meter.allocBytes) }), bconf))
	set("go.gc_cycles", "count", base.sum(func(r *round) float64 { return float64(r.res.meter.gc) }))
	set("e2e.cpu_us_per_conf", "us", cpuPerConf(base))
	set("e2e.setup_wall_s", "s", median(base.setups()))
	set("host.speed_probe_us", "us", probeUS(base))
	set("e2e.conf_per_s", "1/s", confPerS(base))
	set("e2e.tx_p50_ms", "ms", txP50(base))
	set("e2e.tx_p99_ms", "ms", ms(base.pooled(latencies).p99()))
	set("gen.lag_ms.p50", "ms", ms(base.pooled(lags).p50()))
	set("gen.lag_ms.p99", "ms", ms(base.pooled(lags).p99()))
	set("state.heap_bytes_per_conf", "B", ratio(1e6*base.sum(func(r *round) float64 { return r.heapMB - r.heapBaseMB }), bconf))
	set("gen.mint_s", "s", base.sum(func(r *round) float64 { return r.res.mint.Seconds() }))
	untracedP50, tracedP50 := ms(base.pooled(latencies).p50()), ms(traced.pooled(latencies).p50())
	set("trace.overhead_frac", "ratio", ratio(tracedP50, untracedP50)-1)
	path := lt.pathMS(int(conf))
	set("trace.path_frac", "ratio", ratio(path, tracedP50))

	fmt.Printf("traced tx_p50 %.3f ms vs untraced %.3f ms; blocking path %.3f ms\n", tracedP50, untracedP50, path)
	lt.writeTable(os.Stdout, int(conf))
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("metric %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("spans written to %s\n", dump)
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// provenance records what a moved number might be attributed to
// instead of the code: toolchain, CPUs, commit, seed, and the data
// dir's filesystem with a probe of its fsync latency.
func provenance(o options, dir string) (string, error) {
	probe, err := fsyncProbe(dir)
	if err != nil {
		return "", fmt.Errorf("fsync probe: %w", err)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d commit=%s seed=%d fs=%s fsync_probe_us=%.1f",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, o.seed, fsType(dir), probe), nil
}

// fsyncProbe appends and syncs a small record 32 times in dir and
// returns the median sync latency in microseconds.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 512)
	var lat []float64
	for i := 0; i < 32; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(start)))
	}
	return median(lat), nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlay", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
