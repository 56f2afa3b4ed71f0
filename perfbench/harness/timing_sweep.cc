/**
 * @file
 * Workload `timing_sweep`: Figure 6's full-detail sweep. Every one of
 * the 19 workloads runs to completion on the paper hierarchy under the
 * two baselines (16- and 32-byte blocks) and four FAC configurations
 * (HW and HW+SW, 16/32-byte blocks): 114 timing runs per round,
 * submitted as one batch to the experiment Runner. Rounds repeat for
 * the measured time. The --seed picks the workloads' data seed.
 *
 * Set-up: the functional reference runs (one per workload build) that
 * the checks compare every timing run with. The traced run also cuts
 * and farms small live-point libraries (farm_layers.cc) and serves the
 * sweep's requests from a daemon (serve_layers.cc), for the metrics of
 * the layers the sweep itself does not run.
 */

#include <map>
#include <memory>
#include <optional>

#include "bench.hh"
#include "checks.hh"
#include "farm_layers.hh"
#include "layers.hh"
#include "serve_layers.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"
#include "sim/runner.hh"
#include "trace.hh"

using namespace facsim;

namespace perfbench
{

namespace
{

struct SweepRun
{
    TimingRequest req;
    bool fac;
    std::string label;
};

std::vector<SweepRun>
sweepRuns(uint64_t build_seed)
{
    struct Cfg
    {
        const char *name;
        bool fac, software;
        uint32_t block;
    };
    const Cfg cfgs[] = {
        {"base16", false, false, 16}, {"base32", false, false, 32},
        {"HW16", true, false, 16},    {"HW+SW16", true, true, 16},
        {"HW32", true, false, 32},    {"HW+SW32", true, true, 32},
    };
    std::vector<SweepRun> runs;
    for (const WorkloadInfo &w : allWorkloads()) {
        for (const Cfg &c : cfgs) {
            SweepRun r;
            r.req.workload = w.name;
            r.req.build.policy = c.software ? CodeGenPolicy::withSupport()
                                            : CodeGenPolicy::baseline();
            r.req.build.seed = build_seed;
            r.req.pipe = c.fac ? facPipelineConfig(c.block)
                               : baselineConfig(c.block);
            r.fac = c.fac;
            r.label = std::string(w.name) + "/" + c.name;
            runs.push_back(std::move(r));
        }
    }
    return runs;
}

std::string
encoded(const TimingResult &res)
{
    ser::Writer w;
    encodeTimingResult(w, res);
    return w.data();
}

/** runTiming's body with spans around each layer call. */
TimingResult
tracedTiming(const SweepRun &run, uint64_t *end_state)
{
    std::optional<trace::Span> build_span;
    build_span.emplace("machine.build");
    Machine m(workload(run.req.workload), run.req.build);
    build_span.reset();
    Pipeline pipe(run.req.pipe, m.emulator());
    TimingResult res;
    {
        trace::Span sp(run.fac ? "pipeline.run.fac" : "pipeline.run.baseline");
        res.stats = pipe.run(run.req.maxInsts);
    }
    res.hier = pipe.hierarchyStats();
    res.memUsageBytes = m.memUsageBytes();
    res.emu = m.emulator().translationStats();
    res.emuEngine = m.emulator().engine();
    if (end_state)
        *end_state = endStateDigest(m.emulator());
    return res;
}

const char *const probeWorkloads[] = {"compress", "tomcatv", "xlisp"};

/**
 * The live-point layers, which the sweep does not run: cut libraries
 * of the probe workloads under @p build (farm sampling and configs),
 * warm the same programs functionally, open the libraries and farm one
 * traced round of each. Adds the emulator.warm_*, emulator.block_*,
 * lvpt.* and farm.* metrics.
 */
void
lvptProbe(const Args &args, const BuildOptions &build, Report &rep)
{
    uint64_t bytes = 0, entries = 0;
    std::vector<std::string> paths;
    for (const char *w : probeWorkloads) {
        std::string path = fmt("%s/probe_%s.lvpt", args.outDir.c_str(), w);
        LvptBuildRequest breq;
        breq.workload = w;
        breq.build = build;
        breq.pipe = farmBaseCfg();
        breq.sampling = farmSampling();
        trace::Span sp("lvpt.build");
        LvptBuildResult c = buildLvptLibrary(path, breq);
        bytes += c.libraryBytes;
        entries += c.entries;
        paths.push_back(path);
    }
    addWarmLayers({std::begin(probeWorkloads), std::end(probeWorkloads)},
                  build, farmSampling().period, rep);
    std::vector<std::unique_ptr<LvptLibrary>> libs;
    for (const std::string &p : paths) {
        trace::Span sp("lvpt.open");
        libs.push_back(std::make_unique<LvptLibrary>(p));
    }
    WindowStats ws;
    std::vector<double> busy, wait;
    for (const auto &lib : libs)
        tracedFarmRound(*lib, args.threads, &ws, &busy, &wait);
    std::map<std::string, trace::NameStats> spans = trace::byName();
    addLvptLayers(spans, bytes, entries, rep);
}

} // namespace

void
runTimingSweep(const Args &args, Report &rep)
{
    uint64_t st = args.seed;
    uint64_t build_seed = splitmix(st);
    std::vector<SweepRun> runs = sweepRuns(build_seed);
    std::vector<TimingRequest> reqs;
    for (const SweepRun &r : runs)
        reqs.push_back(r.req);

    // Set-up: one functional reference per workload build.
    std::map<std::string, FunctionalRef> refs;
    auto refKey = [](const TimingRequest &q) {
        return q.workload + (q.build.policy.softwareSupport ? "+sw" : "");
    };
    for (const TimingRequest &q : reqs)
        if (!refs.count(refKey(q)))
            refs[refKey(q)] = functionalRun(q.workload, q.build);
    // The set-up runs on this one thread, so the process's CPU time
    // since its start is its host time without what a shared host
    // takes away (see cpuRate); the wall-clock time is printed beside.
    double setup_s = selfCpuSeconds();
    double setup_wall_s = secondsSinceSpawn(args);

    Runner runner(args.threads);
    // Throughput per round: simulated instructions per host second,
    // where a host second is a second of CPU time per worker thread
    // (cpuRate); the wall-clock rate is printed beside it.
    std::vector<double> rates, wall_rates, traced_walls;
    double untraced_wall = 0.0;
    std::vector<std::string> first;
    struct RoundLayer
    {
        double busy = 0, wait = 0, wall = 0;
    };
    std::vector<RoundLayer> layer_rounds;
    /** Traced rounds: host seconds of each run, per round. */
    std::vector<std::vector<double>> job_s(runs.size());

    if (args.trace) {
        // One untraced round: the base of the tracing-overhead figure.
        RunnerReport rr;
        runner.runTimings(reqs, &rr);
        untraced_wall = rr.wallSeconds;
    }

    Clock::time_point t0 = Clock::now();
    do {
        std::vector<TimingResult> res;
        RunnerReport rr;
        double cpu0 = selfCpuSeconds();
        if (!args.trace) {
            res = runner.runTimings(reqs, &rr);
        } else {
            res.resize(runs.size());
            std::vector<int64_t> starts(runs.size());
            trace::Span round("sweep.round");
            uint64_t round_id = round.id();
            int64_t r0 = trace::nowNs();
            rr = runner.forEachIndex(runs.size(), [&](size_t i) -> uint64_t {
                starts[i] = trace::nowNs();
                trace::GroupScope g(i + 1);
                trace::Span job("runner.job", round_id);
                res[i] = tracedTiming(runs[i], nullptr);
                return res[i].stats.insts;
            });
            RoundLayer rl;
            for (size_t i = 0; i < runs.size(); ++i) {
                rl.busy += rr.perJob[i].wallSeconds;
                job_s[i].push_back(rr.perJob[i].wallSeconds);
                rl.wait += (starts[i] - r0) * 1e-9 / runs.size();
            }
            rl.wall = rr.wallSeconds;
            layer_rounds.push_back(rl);
            traced_walls.push_back(rr.wallSeconds);
        }
        rates.push_back(cpuRate(static_cast<double>(rr.simInsts),
                                selfCpuSeconds() - cpu0, runner.jobs()));
        wall_rates.push_back(rr.simInstsPerHostSecond());
        rep.attempted += runs.size();
        if (first.empty()) {
            for (const TimingResult &r : res)
                first.push_back(encoded(r));
            for (size_t i = 0; i < runs.size(); ++i)
                rep.check(checkTimingRun(runs[i].label, res[i].stats,
                                         refs[refKey(reqs[i])],
                                         runs[i].req.pipe));
        } else {
            for (size_t i = 0; i < runs.size(); ++i)
                rep.check(checkSameBytes(runs[i].label + " round repeat",
                                         encoded(res[i]), first[i]));
        }
    } while (secondsSince(t0) < args.seconds);
    double peak_rss = selfPeakRssMb();
    for (const std::string &b : first)
        rep.foldDigest(b);

    // Checks: the same sweep at one thread, statistics identical, and
    // the architectural end state of every run equal to its functional
    // reference.
    std::vector<std::string> serial(runs.size());
    std::vector<uint64_t> end_state(runs.size());
    Runner(1).forEachIndex(runs.size(), [&](size_t i) -> uint64_t {
        trace::GroupScope g(i + 1);
        TimingResult r = tracedTiming(runs[i], &end_state[i]);
        serial[i] = encoded(r);
        return r.stats.insts;
    });
    for (size_t i = 0; i < runs.size(); ++i) {
        rep.check(checkSameBytes(runs[i].label + " 1 vs " +
                                     std::to_string(runner.jobs()) +
                                     " threads",
                                 serial[i], first[i]));
        const FunctionalRef &ref = refs[refKey(reqs[i])];
        if (ref.halted)
            rep.check(checkEndState(runs[i].label, end_state[i], ref.state));
    }

    uint64_t insts = 0;
    for (const auto &kv : refs)
        insts += kv.second.insts;
    rep.note(fmt("%zu runs per round on %u threads, %zu rounds, build seed "
                 "%016llx", runs.size(), runner.jobs(), rates.size(),
                 static_cast<unsigned long long>(build_seed)));
    rep.note(fmt("wall-clock rate %.6g insts/s (median over rounds), "
                 "set-up %.4f s", median(wall_rates), setup_wall_s));
    std::string per_round;
    for (double r : rates)
        per_round += fmt(" %.4g", r);
    rep.note("rate per round:" + per_round);

    if (!args.trace) {
        rep.add("setup_s", setup_s, "s");
        rep.add("sim_insts_per_s", median(rates), "insts/s");
        rep.add("peak_rss_mb", peak_rss, "MB");
        return;
    }

    // Per-layer metrics from the spans and the simulated statistics.
    std::map<std::string, trace::NameStats> spans = trace::byName();
    uint64_t ins[2] = {0, 0}, cyc[2] = {0, 0};
    uint64_t spec = 0, spec_fail = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        TimingResult r;
        ser::TryReader rd(first[i].data(), first[i].size());
        decodeTimingResult(rd, &r);
        ins[runs[i].fac] += r.stats.insts;
        cyc[runs[i].fac] += r.stats.cycles;
        if (runs[i].fac) {
            spec += r.stats.loadsSpeculated;
            spec_fail += r.stats.loadSpecFailures;
        }
    }
    size_t rounds = layer_rounds.size();
    auto per = [&](const char *span, double den) {
        return den > 0 ? spans[span].totalS * 1e9 / den : 0.0;
    };
    // Every traced round and the one-thread pass ran each run once.
    double reps = static_cast<double>(rounds + 1);
    std::vector<double> busy, wait, over;
    for (const RoundLayer &rl : layer_rounds) {
        busy.push_back(rl.busy);
        wait.push_back(rl.wait);
        over.push_back(rl.wall * runner.jobs() / rl.busy);
    }
    double pipe_s = spans["pipeline.run.baseline"].totalS +
        spans["pipeline.run.fac"].totalS;

    rep.add("machine.build_ms", median(spans["machine.build"].durS) * 1e3,
            "ms");
    rep.add("emulator.step_ns_per_inst", per("emulator.step", insts), "ns");
    rep.add("pipeline.ns_per_inst.baseline",
            per("pipeline.run.baseline", ins[0] * reps), "ns");
    rep.add("pipeline.ns_per_inst.fac", per("pipeline.run.fac", ins[1] * reps),
            "ns");
    rep.add("pipeline.ns_per_cycle",
            pipe_s * 1e9 / ((cyc[0] + cyc[1]) * reps), "ns");
    rep.add("pipeline.ipc.baseline", double(ins[0]) / cyc[0], "insts/cycle");
    rep.add("pipeline.ipc.fac", double(ins[1]) / cyc[1], "insts/cycle");
    rep.add("fac.load_fail_ratio", double(spec_fail) / spec, "ratio");
    rep.add("runner.busy_s", median(busy), "s");
    rep.add("runner.queue_wait_s", median(wait), "s");
    rep.add("runner.makespan_over_ideal", median(over), "ratio");
    rep.note(fmt("tracing overhead: traced round %.3f s vs untraced %.3f s "
                 "(%+.1f%%)", median(traced_walls), untraced_wall,
                 (median(traced_walls) / untraced_wall - 1.0) * 100.0));

    // The probes every traced run makes, and the live-point layers,
    // which the sweep does not run.
    addPredictorProbe(reqs[0].build, runner.jobs(), rep);
    lvptProbe(args, reqs[0].build, rep);
    addStreamLayers(reqs[0].build, rep);

    // The serving layers, over the sweep's own requests and results.
    std::vector<ServedTiming> served(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        served[i].req = runs[i].req;
        served[i].label = runs[i].label;
        served[i].result = first[i];
        served[i].inprocS = median(job_s[i]);
    }
    measureServeLayers(args, served, build_seed, rep);
}

} // namespace perfbench
