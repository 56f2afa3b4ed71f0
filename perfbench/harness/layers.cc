#include "layers.hh"

#include "bench.hh"
#include "mem/hierarchy/hierarchy.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace.hh"

using namespace facsim;

namespace perfbench
{

namespace
{

/** Passes over a stream; the median pass is reported. */
constexpr int passes = 5;

/** Keeps the timed loops' results live. */
volatile uint64_t sink;

} // namespace

double
predictNsPerCall(const LoadStream &s)
{
    if (s.loads.empty())
        return 0.0;
    FastAddrCalc fac(facConfigFor(baselineConfig(32).dcache));
    std::vector<double> ns;
    uint64_t ok = 0;
    for (int p = 0; p < passes; ++p) {
        trace::Span sp("fac.predict");
        Clock::time_point t0 = Clock::now();
        for (const LoadStream::Access &a : s.loads)
            ok += fac.predict(a.base, a.offset, a.fromReg).success;
        ns.push_back(secondsSince(t0) * 1e9 / s.loads.size());
    }
    sink = ok;
    return median(ns);
}

double
hierarchyNsPerAccess(const LoadStream &s, const std::string &preset)
{
    if (s.data.empty())
        return 0.0;
    CacheConfig l1 = baselineConfig(32).dcache;
    std::vector<double> ns;
    uint64_t done = 0;
    for (int p = 0; p < passes; ++p) {
        MemHierarchy h(l1, hierarchyPreset(preset));
        trace::Span sp("hierarchy.access");
        Clock::time_point t0 = Clock::now();
        uint64_t t = 0;
        for (uint32_t d : s.data) {
            MemResult r = (d & 1u) ? h.write(d & ~1u, t) : h.read(d, t);
            done += r.doneCycle;
            t += 2;
        }
        ns.push_back(secondsSince(t0) * 1e9 / s.data.size());
    }
    sink = done;
    return median(ns);
}

LoadStream
recordStreams(const std::vector<std::string> &workloads,
              const BuildOptions &build, size_t cap_per_workload)
{
    LoadStream all;
    for (const std::string &w : workloads) {
        LoadStream one;
        one.cap = cap_per_workload;
        functionalRun(w, build, &one);
        all.loads.insert(all.loads.end(), one.loads.begin(),
                         one.loads.end());
        all.data.insert(all.data.end(), one.data.begin(), one.data.end());
    }
    return all;
}

void
addStreamLayers(const BuildOptions &build, Report &rep)
{
    LoadStream ls = recordStreams({"compress", "xlisp", "tomcatv"}, build,
                                  200000);
    rep.add("fac.predict_ns", predictNsPerCall(ls), "ns");
    rep.add("hierarchy.access_ns.paper", hierarchyNsPerAccess(ls, "paper"),
            "ns");
    rep.add("hierarchy.access_ns.modern", hierarchyNsPerAccess(ls, "modern"),
            "ns");
}

namespace
{

/** Counts runWarm's traffic; the emulator's own share of a cut. */
struct CountingSink : Emulator::WarmSink
{
    uint64_t events = 0;
    void warmFetch(uint32_t) override { ++events; }
    void warmControl(uint32_t, bool, uint32_t) override { ++events; }
    void warmData(uint32_t, bool) override { ++events; }
};

} // namespace

void
addWarmLayers(const std::vector<std::string> &workloads,
              const BuildOptions &build, uint64_t period, Report &rep)
{
    uint64_t insts = 0, hits = 0, misses = 0;
    double warm_s = 0.0;
    for (const std::string &w : workloads) {
        Machine m(workload(w), build);
        CountingSink sink;
        trace::Span sp("emulator.runWarm");
        Clock::time_point t0 = Clock::now();
        while (!m.emulator().halted())
            insts += m.emulator().runWarm(period, 5, sink);
        warm_s += secondsSince(t0);
        const EmuTranslationStats &t = m.emulator().translationStats();
        hits += t.blockCacheHits;
        misses += t.blockCacheMisses;
    }
    rep.add("emulator.warm_ns_per_inst", warm_s * 1e9 / insts, "ns");
    rep.add("emulator.block_hit_ratio", double(hits) / (hits + misses),
            "ratio");
}

void
addPredictorProbe(const BuildOptions &build, unsigned threads, Report &rep)
{
    const char *const presets[] = {"paper", "modern"};
    std::vector<TimingRequest> reqs;
    for (const char *p : presets) {
        for (const char *w : {"compress", "tomcatv", "xlisp"}) {
            TimingRequest q;
            q.workload = w;
            q.build = build;
            q.pipe = predictorPipelineConfig("fac+stride+waymemo", 32);
            q.pipe.hierarchy = hierarchyPreset(p);
            reqs.push_back(q);
        }
    }
    std::vector<TimingResult> runs = Runner(threads).runTimings(reqs);
    uint64_t stride = 0, stride_fail = 0, saved = 0, loads = 0;
    uint64_t acc[2] = {0, 0}, miss[2] = {0, 0};
    for (size_t i = 0; i < runs.size(); ++i) {
        const TimingResult &r = runs[i];
        stride += r.stats.strideSpeculated;
        stride_fail += r.stats.strideSpecFailures;
        saved += r.stats.wayMemoTagReadsSaved;
        loads += r.stats.loads;
        acc[i / 3] += r.hier.levels.at(0).accesses;
        miss[i / 3] += r.hier.levels.at(0).misses;
    }
    rep.add("predictor.stride_fail_ratio", double(stride_fail) / stride,
            "ratio");
    rep.add("predictor.waymemo_saved_ratio", double(saved) / loads, "ratio");
    rep.add("hierarchy.l1_miss_ratio.paper", double(miss[0]) / acc[0],
            "ratio");
    rep.add("hierarchy.l1_miss_ratio.modern", double(miss[1]) / acc[1],
            "ratio");
}

} // namespace perfbench
