#include "farm_layers.hh"

#include <optional>

using namespace facsim;

namespace perfbench
{

SamplingConfig
farmSampling()
{
    SamplingConfig s;
    s.period = 20000;
    s.detail = 1000;
    s.warmup = 2000;
    return s;
}

namespace
{

PipelineConfig
modern(PipelineConfig c)
{
    c.hierarchy = modernHierarchy();
    return c;
}

} // namespace

PipelineConfig farmBaseCfg() { return modern(baselineConfig(32)); }

PipelineConfig
farmFacCfg()
{
    return modern(predictorPipelineConfig("fac+stride+waymemo", 32));
}

RunnerReport
tracedFarmRound(const LvptLibrary &lib, unsigned threads, WindowStats *ws,
                std::vector<double> *busy, std::vector<double> *wait)
{
    const SamplingConfig &s = lib.sampling();
    const WorkloadInfo &wl = workload(lib.identity().workload);
    size_t n = lib.numEntries();
    std::vector<WindowStats> per(n);
    std::vector<int64_t> starts(n);
    trace::Span round("farm.round");
    uint64_t round_id = round.id();
    int64_t r0 = trace::nowNs();
    Runner runner(threads);
    RunnerReport rr = runner.forEachIndex(n, [&](size_t i) -> uint64_t {
        starts[i] = trace::nowNs();
        trace::GroupScope g(i + 1);
        trace::Span job("runner.job", round_id);
        std::optional<trace::Span> build_span;
        build_span.emplace("machine.build");
        Machine m(wl, lib.identity().buildOptions());
        build_span.reset();
        uint64_t detailed = 0;
        for (int fac = 1; fac >= 0; --fac) {
            Pipeline pipe(fac ? farmFacCfg() : farmBaseCfg(), m.emulator());
            {
                trace::Span sp("lvpt.restore");
                lib.restoreEntry(i, m, pipe);
            }
            trace::Span sp(fac ? "farm.window.fac" : "farm.window.baseline");
            if (s.warmup)
                pipe.run(s.warmup);
            if (!pipe.done())
                pipe.run(pipe.stats().insts + s.detail);
            per[i].insts[fac] += pipe.stats().insts;
            per[i].cycles[fac] += pipe.currentCycle();
            detailed += pipe.stats().insts;
        }
        return detailed;
    });
    double b = 0, w = 0;
    for (size_t i = 0; i < n; ++i) {
        for (int k = 0; k < 2; ++k) {
            ws->insts[k] += per[i].insts[k];
            ws->cycles[k] += per[i].cycles[k];
        }
        b += rr.perJob[i].wallSeconds;
        w += (starts[i] - r0) * 1e-9;
    }
    busy->push_back(b);
    wait->push_back(n ? w / n : 0.0);
    return rr;
}

void
addLvptLayers(std::map<std::string, trace::NameStats> &spans,
              uint64_t lib_bytes, uint64_t entries, Report &rep)
{
    const trace::NameStats &restore = spans["lvpt.restore"];
    // Two restores per live-point job, one per config of the pair.
    double jobs = restore.count / 2.0;
    rep.add("lvpt.write_s",
            spans["lvpt.build"].totalS - spans["emulator.runWarm"].totalS,
            "s");
    rep.add("lvpt.bytes_per_point", double(lib_bytes) / entries, "bytes");
    rep.add("lvpt.open_ms", spans["lvpt.open"].totalS * 1e3, "ms");
    rep.add("lvpt.restore_us_per_point", restore.totalS * 1e6 / restore.count,
            "us");
    rep.add("farm.window_us_per_point",
            (spans["farm.window.baseline"].totalS +
             spans["farm.window.fac"].totalS) * 1e6 / jobs,
            "us");
}

} // namespace perfbench
