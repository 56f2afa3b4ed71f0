/**
 * @file
 * Self-test of the benchmark's output checks: each check first accepts
 * a real, correct output, then must reject the same output made wrong
 * in one place (a run short one retired instruction, one flipped byte
 * in a served response, a library coverage off by one period, ...).
 */

#include <cstdio>

#include "bench.hh"
#include "checks.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"

using namespace facsim;

namespace perfbench
{

int
runSelfTest(const Args &)
{
    int bad = 0;
    auto expect = [&](const char *what, const std::string &err,
                      bool want_reject) {
        bool rejected = !err.empty();
        bool ok = rejected == want_reject;
        bad += !ok;
        std::printf("%-4s %s %s%s\n", ok ? "ok" : "FAIL",
                    want_reject ? "rejects" : "accepts", what,
                    rejected ? (" (" + err + ")").c_str() : "");
    };

    BuildOptions build;
    FunctionalRef ref = functionalRun("grep", build);
    TimingRequest q;
    q.workload = "grep";
    q.build = build;
    q.pipe = baselineConfig(32);
    TimingResult base = runTiming(q);
    q.pipe = facPipelineConfig(32);
    TimingResult fac = runTiming(q);

    expect("a correct baseline run",
           checkTimingRun("grep/base", base.stats, ref, baselineConfig(32)),
           false);
    expect("a correct FAC run",
           checkTimingRun("grep/fac", fac.stats, ref, facPipelineConfig(32)),
           false);
    PipeStats s = base.stats;
    --s.insts;
    expect("a run short one retired instruction",
           checkTimingRun("grep/base", s, ref, baselineConfig(32)), true);
    s = fac.stats;
    ++s.stores;
    expect("a run with one store too many",
           checkTimingRun("grep/fac", s, ref, facPipelineConfig(32)), true);
    s = base.stats;
    s.cycles = s.insts / 5;
    expect("an IPC above the issue width",
           checkTimingRun("grep/base", s, ref, baselineConfig(32)), true);
    s = fac.stats;
    s.loadSpecFailures = s.loadsSpeculated + 1;
    expect("more failed than speculated loads",
           checkTimingRun("grep/fac", s, ref, facPipelineConfig(32)), true);
    s = base.stats;
    s.loadsSpeculated = 1;
    expect("a baseline run that speculated",
           checkTimingRun("grep/base", s, ref, baselineConfig(32)), true);

    Machine m(workload("grep"), build);
    m.emulator().run();
    uint64_t end = endStateDigest(m.emulator());
    expect("the end state of a second functional run",
           checkEndState("grep", end, ref.state), false);
    uint32_t a = m.image().dataBase;
    m.memory().write8(a, m.memory().read8(a) ^ 1);
    expect("an end state with one flipped memory bit",
           checkEndState("grep", endStateDigest(m.emulator()), ref.state),
           true);

    ser::Writer w;
    encodeTimingResult(w, base);
    std::string flipped = w.data();
    flipped[flipped.size() / 2] ^= 0x10;
    expect("the same encoded result", checkSameBytes("grep", w.data(),
                                                     w.data()), false);
    expect("an encoded result with one flipped byte",
           checkSameBytes("grep", flipped, w.data()), true);

    uint64_t period = 20000;
    expect("a library covering every instruction",
           checkCoverage("grep", ref.insts, ref.insts), false);
    expect("a library covering one period too few",
           checkCoverage("grep", ref.insts - period, ref.insts), true);
    double full = static_cast<double>(base.stats.cycles) / fac.stats.cycles;
    expect("a paired speedup 0.01 off", checkSpeedup("grep", full + 0.01,
                                                    full, 0.02), false);
    expect("a paired speedup 0.03 off", checkSpeedup("grep", full + 0.03,
                                                    full, 0.02), true);
    FarmResult fr;
    fr.windows = 10;
    FarmResult fr2 = fr;
    ++fr2.measuredCycles;
    expect("a farm result one cycle off",
           checkSameBytes("farm", farmBytes(fr2), farmBytes(fr)), true);

    expect("a served body equal to the in-process run",
           checkColdResponse("grep", true, w.data(), w.data()), false);
    expect("a served body with one flipped byte",
           checkColdResponse("grep", true, flipped, w.data()), true);
    expect("a served body one byte short",
           checkColdResponse("grep", true, w.data().substr(1), w.data()),
           true);
    expect("warm hits equal to the warm requests sent",
           checkWarmCounters(1000, 0, 1000), false);
    expect("one warm request the cache did not answer",
           checkWarmCounters(999, 1, 1000), true);
    expect("one reply missing",
           checkReplies("served cold pass", 133, 132), true);

    std::printf("self-test %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

} // namespace perfbench
