#include "checks.hh"

#include <cmath>
#include <cstring>
#include <optional>

#include "bench.hh"
#include "sim/request_codec.hh"
#include "trace.hh"
#include "util/serialize.hh"

using namespace facsim;

namespace perfbench
{

FunctionalRef
functionalRun(const std::string &wl, const BuildOptions &build,
              LoadStream *rec)
{
    std::optional<trace::Span> build_span;
    build_span.emplace("machine.build");
    Machine m(workload(wl), build);
    build_span.reset();
    Emulator &emu = m.emulator();
    FunctionalRef ref;
    ExecRecord r;
    // Recording runs feed the layer timings; they are not step timings.
    std::optional<trace::Span> step_span;
    if (!rec)
        step_span.emplace("emulator.step");
    while (emu.step(&r)) {
        ++ref.insts;
        if (!isMem(r.inst.op))
            continue;
        bool load = isLoad(r.inst.op);
        if (load)
            ++ref.loads;
        else
            ++ref.stores;
        if (rec && rec->data.size() < rec->cap) {
            rec->data.push_back((r.effAddr & ~1u) | (load ? 0u : 1u));
            if (load)
                rec->loads.push_back({r.baseVal, r.offsetVal,
                                      r.offsetFromReg});
        }
    }
    step_span.reset();
    ref.halted = emu.halted();
    ref.state = endStateDigest(emu);
    return ref;
}

uint64_t
endStateDigest(Emulator &emu)
{
    ser::Writer w;
    for (unsigned r = 0; r < numIntRegs; ++r)
        w.u32(emu.intReg(r));
    for (unsigned r = 0; r < numFpRegs; ++r) {
        double d = emu.fpReg(r);
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        w.u64(bits);
    }
    w.b(emu.fpccFlag());
    w.u32(emu.pc());
    w.b(emu.halted());
    w.u64(emu.instCount());
    emu.memory().saveState(w);
    return ser::fnv1a(w.data().data(), w.data().size());
}

std::string
checkTimingRun(const std::string &label, const PipeStats &st,
               const FunctionalRef &ref, const PipelineConfig &cfg)
{
    if (st.insts != ref.insts || st.loads != ref.loads ||
        st.stores != ref.stores)
        return fmt("%s: retired insts/loads/stores %llu/%llu/%llu, "
                   "functional run %llu/%llu/%llu", label.c_str(),
                   (unsigned long long)st.insts,
                   (unsigned long long)st.loads,
                   (unsigned long long)st.stores,
                   (unsigned long long)ref.insts,
                   (unsigned long long)ref.loads,
                   (unsigned long long)ref.stores);
    double ipc = st.ipc();
    if (!(ipc > 0.0) || ipc > cfg.issueWidth)
        return fmt("%s: IPC %.4f outside (0, %u]", label.c_str(), ipc,
                   cfg.issueWidth);
    if (st.loadSpecFailures > st.loadsSpeculated ||
        st.loadsSpeculated > st.loads)
        return fmt("%s: load speculation failed %llu / speculated %llu / "
                   "loads %llu out of order", label.c_str(),
                   (unsigned long long)st.loadSpecFailures,
                   (unsigned long long)st.loadsSpeculated,
                   (unsigned long long)st.loads);
    bool speculates = cfg.facEnabled || cfg.pred.stride;
    if (!speculates && (st.loadsSpeculated || st.storesSpeculated))
        return fmt("%s: baseline config speculated %llu loads, %llu stores",
                   label.c_str(), (unsigned long long)st.loadsSpeculated,
                   (unsigned long long)st.storesSpeculated);
    return "";
}

std::string
checkEndState(const std::string &label, uint64_t got, uint64_t want)
{
    if (got == want)
        return "";
    return fmt("%s: end-state digest %016llx, functional run %016llx",
               label.c_str(), (unsigned long long)got,
               (unsigned long long)want);
}

std::string
checkSameBytes(const std::string &label, const std::string &a,
               const std::string &b)
{
    if (a == b)
        return "";
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return fmt("%s: results differ at byte %zu (%zu vs %zu bytes)",
               label.c_str(), i, a.size(), b.size());
}

std::string
checkCoverage(const std::string &label, uint64_t covered,
              uint64_t functional)
{
    if (covered == functional)
        return "";
    return fmt("%s: library covers %llu instructions, functional run "
               "retires %llu", label.c_str(),
               (unsigned long long)covered, (unsigned long long)functional);
}

std::string
checkSpeedup(const std::string &label, double farm, double full, double tol)
{
    if (std::isfinite(farm) && std::fabs(farm - full) <= tol)
        return "";
    return fmt("%s: farm paired speedup %.4f, full-detail %.4f (tolerance "
               "%.3f)", label.c_str(), farm, full, tol);
}

std::string
farmBytes(const FarmResult &fr)
{
    ser::Writer w;
    auto est = [&](const MetricEstimate &e) {
        w.f64(e.mean);
        w.f64(e.halfWidth);
        w.u64(e.n);
        w.b(e.insufficient);
    };
    w.u64(fr.windows);
    w.u64(fr.measuredInsts);
    w.u64(fr.measuredCycles);
    w.u64(fr.warmupInsts);
    w.u64(fr.totalInsts);
    est(fr.cpi);
    est(fr.ipc);
    est(fr.partnerCpi);
    est(fr.pairedSpeedup);
    est(fr.independentSpeedup);
    w.u64(fr.report.numJobs);
    return w.data();
}

std::string
checkColdResponse(const std::string &label, bool timing,
                  const std::string &body, const std::string &reference)
{
    ser::TryReader r(body.data(), body.size());
    ser::Writer again;
    if (timing) {
        TimingResult res;
        if (!decodeTimingResult(r, &res) || !r.atEnd())
            return fmt("%s: response body does not decode as a timing "
                       "result", label.c_str());
        encodeTimingResult(again, res);
    } else {
        ProfileResult res;
        if (!decodeProfileResult(r, &res) || !r.atEnd())
            return fmt("%s: response body does not decode as a profile "
                       "result", label.c_str());
        encodeProfileResult(again, res);
    }
    return checkSameBytes(label + " vs in-process run", again.data(),
                          reference);
}

std::string
checkWarmCounters(double hits, double misses, uint64_t warm_sent)
{
    if (hits == static_cast<double>(warm_sent) && misses == 0.0)
        return "";
    return fmt("restarted daemon counted %.0f hits and %.0f executions for "
               "%llu warm requests", hits, misses,
               (unsigned long long)warm_sent);
}

std::string
checkReplies(const std::string &label, uint64_t sent, uint64_t ok)
{
    if (sent == ok)
        return "";
    return fmt("%s: %llu requests sent, %llu OK replies", label.c_str(),
               (unsigned long long)sent, (unsigned long long)ok);
}

} // namespace perfbench
