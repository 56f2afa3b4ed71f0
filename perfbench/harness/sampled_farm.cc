/**
 * @file
 * Workload `sampled_farm`: cut one live-point library per workload
 * (integer, FP and pointer-heavy, at a larger scale) on the modern
 * hierarchy, then farm matched pairs, baseline vs fac+stride+waymemo,
 * over every live point. Farm rounds repeat for the measured time. The
 * --seed picks the workloads' data seed.
 *
 * Set-up: cutting the libraries (functional warming plus checkpoint
 * writes). The traced run also serves the full-detail check runs from
 * a daemon (serve_layers.cc) for the serving layers' metrics.
 */

#include <map>

#include "bench.hh"
#include "checks.hh"
#include "farm_layers.hh"
#include "layers.hh"
#include "serve_layers.hh"
#include "sim/request_codec.hh"

using namespace facsim;

namespace perfbench
{

namespace
{

const char *const farmWorkloads[] = {"compress", "tomcatv", "xlisp"};
constexpr uint64_t farmScale = 4;
/** Paired-speedup agreement with full detail the checks require. */
constexpr double speedupTol = 0.02;

} // namespace

void
runSampledFarm(const Args &args, Report &rep)
{
    uint64_t st = args.seed;
    BuildOptions build;
    build.scale = farmScale;
    build.seed = splitmix(st);
    SamplingConfig s = farmSampling();

    // Set-up: cut the libraries.
    std::vector<std::string> paths;
    std::vector<LvptBuildResult> cuts;
    uint64_t lib_bytes = 0;
    for (const char *w : farmWorkloads) {
        std::string path = fmt("%s/%s.lvpt", args.outDir.c_str(), w);
        LvptBuildRequest breq;
        breq.workload = w;
        breq.build = build;
        breq.pipe = farmBaseCfg();
        breq.sampling = s;
        trace::Span sp("lvpt.build");
        cuts.push_back(buildLvptLibrary(path, breq));
        lib_bytes += cuts.back().libraryBytes;
        paths.push_back(path);
    }
    // The set-up runs on this one thread, so the process's CPU time
    // since its start is its host time without what a shared host
    // takes away (see cpuRate); the wall-clock time is printed beside.
    double setup_s = selfCpuSeconds();
    double setup_wall_s = secondsSinceSpawn(args);

    std::vector<std::unique_ptr<LvptLibrary>> libs;
    for (const std::string &p : paths) {
        trace::Span sp("lvpt.open");
        libs.push_back(std::make_unique<LvptLibrary>(p));
    }

    FarmRequest freq;
    freq.pipe = farmFacCfg();
    freq.partner = farmBaseCfg();
    freq.matchedPair = true;
    freq.jobs = args.threads;

    // Detailed simulated instructions (warmup and measured windows of
    // both configs) per host second of CPU time per worker (cpuRate);
    // live points per second and the wall-clock rate are printed beside.
    std::vector<double> rates, point_rates, wall_rates, traced_walls, busy,
        wait, over;
    double untraced_wall = 0.0;
    uint64_t points = 0;
    WindowStats ws;
    std::vector<FarmResult> first;
    if (args.trace) {
        // One untraced round: the base of the tracing-overhead figure.
        for (const auto &lib : libs) {
            first.push_back(runFarm(*lib, freq));
            untraced_wall += first.back().report.wallSeconds;
        }
    }

    Clock::time_point t0 = Clock::now();
    do {
        uint64_t jobs = 0, insts = 0;
        double wall = 0.0, cpu = 0.0;
        for (size_t k = 0; k < libs.size(); ++k) {
            double cpu0 = selfCpuSeconds();
            if (!args.trace) {
                FarmResult fr = runFarm(*libs[k], freq);
                cpu += selfCpuSeconds() - cpu0;
                jobs += fr.report.numJobs;
                insts += fr.report.simInsts;
                wall += fr.report.wallSeconds;
                if (first.size() < libs.size())
                    first.push_back(fr);
                else
                    rep.check(checkSameBytes(
                        std::string(farmWorkloads[k]) + " farm round repeat",
                        farmBytes(fr), farmBytes(first[k])));
            } else {
                RunnerReport rr = tracedFarmRound(*libs[k], args.threads,
                                                  &ws, &busy, &wait);
                cpu += selfCpuSeconds() - cpu0;
                jobs += rr.numJobs;
                insts += rr.simInsts;
                wall += rr.wallSeconds;
                over.push_back(rr.wallSeconds * rr.jobs / busy.back());
            }
        }
        if (args.trace)
            traced_walls.push_back(wall);
        rates.push_back(cpuRate(static_cast<double>(insts), cpu,
                                args.threads));
        point_rates.push_back(cpuRate(static_cast<double>(jobs), cpu,
                                      args.threads));
        wall_rates.push_back(insts / wall);
        points += jobs;
    } while (secondsSince(t0) < args.seconds);
    rep.attempted = points;
    double peak_rss = selfPeakRssMb();

    // Checks: coverage vs a functional run, paired speedup vs full
    // detail, and the farm bitwise identical at one thread.
    std::vector<TimingRequest> full;
    for (const char *w : farmWorkloads) {
        for (int fac = 0; fac < 2; ++fac) {
            TimingRequest q;
            q.workload = w;
            q.build = build;
            q.pipe = fac ? farmFacCfg() : farmBaseCfg();
            full.push_back(q);
        }
    }
    RunnerReport full_rr;
    std::vector<TimingResult> fres =
        Runner(args.threads).runTimings(full, &full_rr);
    FarmRequest serial = freq;
    serial.jobs = 1;
    uint64_t step_insts = 0;
    for (size_t k = 0; k < libs.size(); ++k) {
        std::string w = farmWorkloads[k];
        FunctionalRef ref = functionalRun(w, build);
        step_insts += ref.insts;
        rep.check(checkCoverage(w, libs[k]->totalInsts(), ref.insts));
        FarmResult one = runFarm(*libs[k], serial);
        if (first.size() > k)
            rep.check(checkSameBytes(w + " farm 1 vs " +
                                         std::to_string(args.threads) +
                                         " threads",
                                     farmBytes(one), farmBytes(first[k])));
        double full_spd = static_cast<double>(fres[2 * k].stats.cycles) /
            fres[2 * k + 1].stats.cycles;
        rep.check(checkSpeedup(w, one.pairedSpeedup.mean, full_spd,
                               speedupTol));
        rep.foldDigest(farmBytes(one));
        rep.note(fmt("%s: %zu live points, %llu insts, library %llu bytes, "
                     "paired speedup %.4f +- %.4f, full detail %.4f", w.c_str(),
                     libs[k]->numEntries(),
                     static_cast<unsigned long long>(libs[k]->totalInsts()),
                     static_cast<unsigned long long>(cuts[k].libraryBytes),
                     one.pairedSpeedup.mean, one.pairedSpeedup.halfWidth,
                     full_spd));
    }
    for (const TimingResult &r : fres) {
        ser::Writer w;
        encodeTimingResult(w, r);
        rep.foldDigest(w.data());
    }
    rep.note(fmt("scale %llu, period %llu, warmup %llu, detail %llu, %u "
                 "threads, %zu rounds, build seed %016llx",
                 static_cast<unsigned long long>(farmScale),
                 static_cast<unsigned long long>(s.period),
                 static_cast<unsigned long long>(s.warmup),
                 static_cast<unsigned long long>(s.detail), args.threads,
                 rates.size(), static_cast<unsigned long long>(build.seed)));
    rep.note(fmt("%.6g live points/s, libraries %llu bytes; wall-clock "
                 "rate %.6g insts/s (medians over rounds), set-up %.4f s",
                 median(point_rates),
                 static_cast<unsigned long long>(lib_bytes),
                 median(wall_rates), setup_wall_s));

    if (!args.trace) {
        rep.add("setup_s", setup_s, "s");
        rep.add("sim_insts_per_s", median(rates), "insts/s");
        rep.add("peak_rss_mb", peak_rss, "MB");
        return;
    }

    // Per-layer metrics: the farm's own spans and windows, the
    // full-detail check runs, then the probes every traced run makes.
    std::map<std::string, trace::NameStats> spans = trace::byName();
    uint64_t entries = 0;
    for (const LvptBuildResult &c : cuts)
        entries += c.entries;
    uint64_t spec = 0, spec_fail = 0;
    for (size_t i = 1; i < fres.size(); i += 2) {
        spec += fres[i].stats.loadsSpeculated;
        spec_fail += fres[i].stats.loadSpecFailures;
    }
    double win_s[2] = {spans["farm.window.baseline"].totalS,
                       spans["farm.window.fac"].totalS};

    rep.add("machine.build_ms", median(spans["machine.build"].durS) * 1e3,
            "ms");
    rep.add("emulator.step_ns_per_inst",
            spans["emulator.step"].totalS * 1e9 / step_insts, "ns");
    rep.add("pipeline.ns_per_inst.baseline", win_s[0] * 1e9 / ws.insts[0],
            "ns");
    rep.add("pipeline.ns_per_inst.fac", win_s[1] * 1e9 / ws.insts[1], "ns");
    rep.add("pipeline.ns_per_cycle",
            (win_s[0] + win_s[1]) * 1e9 / (ws.cycles[0] + ws.cycles[1]), "ns");
    rep.add("pipeline.ipc.baseline", double(ws.insts[0]) / ws.cycles[0],
            "insts/cycle");
    rep.add("pipeline.ipc.fac", double(ws.insts[1]) / ws.cycles[1],
            "insts/cycle");
    rep.add("fac.load_fail_ratio", double(spec_fail) / spec, "ratio");
    rep.add("runner.busy_s", median(busy), "s");
    rep.add("runner.queue_wait_s", median(wait), "s");
    rep.add("runner.makespan_over_ideal", median(over), "ratio");
    addWarmLayers({std::begin(farmWorkloads), std::end(farmWorkloads)},
                  build, s.period, rep);
    spans = trace::byName();
    addLvptLayers(spans, lib_bytes, entries, rep);
    addStreamLayers(build, rep);
    addPredictorProbe(build, args.threads, rep);
    rep.note(fmt("tracing overhead: traced farm round %.3f s vs untraced "
                 "%.3f s (%+.1f%%)", median(traced_walls), untraced_wall,
                 (median(traced_walls) / untraced_wall - 1.0) * 100.0));

    // The serving layers, over the full-detail check runs.
    std::vector<ServedTiming> served(full.size());
    for (size_t i = 0; i < full.size(); ++i) {
        served[i].req = full[i];
        served[i].label = std::string(farmWorkloads[i / 2]) +
            (i % 2 ? "/fac+stride+waymemo" : "/base32");
        ser::Writer w;
        encodeTimingResult(w, fres[i]);
        served[i].result = w.data();
        served[i].inprocS = full_rr.perJob[i].wallSeconds;
    }
    measureServeLayers(args, served, build.seed, rep);
}

} // namespace perfbench
