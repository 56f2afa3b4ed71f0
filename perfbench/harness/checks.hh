/**
 * @file
 * The benchmark's output checks. Each compares a program output with
 * an independent computation (a functional run of a separately built
 * Machine, a full-detail run, a run at another thread count) or a
 * required property, and returns an empty string
 * when it holds or one line saying what is wrong. The workloads call
 * them on real outputs; the self-test calls them on deliberately
 * wrong ones.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "sim/experiment.hh"
#include "sim/lvpt.hh"
#include "sim/machine.hh"

namespace perfbench
{

/** A functional run to completion of a separately built Machine. */
struct FunctionalRef
{
    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    bool halted = false;
    /** endStateDigest() after the run. */
    uint64_t state = 0;
};

/** Recorded streams of a functional run (traced runs only). */
struct LoadStream
{
    struct Access
    {
        uint32_t base;
        int32_t offset;
        bool fromReg;
    };
    std::vector<Access> loads;
    /** Data addresses in program order; low bit set for stores. */
    std::vector<uint32_t> data;
    size_t cap = 0;  ///< stop recording past this many entries
};

/**
 * Build @p wl with @p build and step it to completion with
 * ExecRecords, counting retired instructions, loads and stores; when
 * @p rec is set, also record its load operands and data addresses.
 */
FunctionalRef functionalRun(const std::string &wl,
                            const facsim::BuildOptions &build,
                            LoadStream *rec = nullptr);

/** Digest of registers, PC, halt flag and the whole memory image. */
uint64_t endStateDigest(facsim::Emulator &emu);

/** Pipeline run vs functional run, and the per-run invariants. */
std::string checkTimingRun(const std::string &label,
                           const facsim::PipeStats &st,
                           const FunctionalRef &ref,
                           const facsim::PipelineConfig &cfg);

/** Architectural end state vs the functional run's. */
std::string checkEndState(const std::string &label, uint64_t got,
                          uint64_t want);

/** Two encodings of what must be the same result, byte for byte. */
std::string checkSameBytes(const std::string &label, const std::string &a,
                           const std::string &b);

/** A library's covered instructions vs the functional count. */
std::string checkCoverage(const std::string &label, uint64_t covered,
                          uint64_t functional);

/** Farm paired speedup vs the full-detail speedup. */
std::string checkSpeedup(const std::string &label, double farm,
                         double full, double tol);

/** Every simulated field of a farm sweep, as comparable bytes. */
std::string farmBytes(const facsim::FarmResult &fr);

/**
 * A served cold response body vs the encoding of an in-process run of
 * the same request: the body must decode completely, and the decoded
 * result must re-encode to the reference (field by field through the
 * codec's own field list).
 */
std::string checkColdResponse(const std::string &label, bool timing,
                              const std::string &body,
                              const std::string &reference);

/** Daemon counters after the restart vs what the client sent. */
std::string checkWarmCounters(double hits, double misses,
                              uint64_t warm_sent);

/** Exactly one OK reply per request sent. */
std::string checkReplies(const std::string &label, uint64_t sent,
                         uint64_t ok);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
