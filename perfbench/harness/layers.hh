/**
 * @file
 * Per-layer measurements that every traced run makes the same way,
 * whichever workload it runs: the fast-address-calculation predictor
 * over recorded load operands, the data-memory hierarchy over recorded
 * data addresses, functional warming, and full-detail
 * fac+stride+waymemo runs on both hierarchy presets.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "checks.hh"

namespace perfbench
{

/** Median ns per FastAddrCalc::predict call over @p s.loads. */
double predictNsPerCall(const LoadStream &s);

/**
 * Median ns per MemHierarchy read/write over @p s.data under the
 * hierarchy preset @p preset ("paper" or "modern").
 */
double hierarchyNsPerAccess(const LoadStream &s, const std::string &preset);

/** Record the load/data streams of @p workloads (functional runs). */
LoadStream recordStreams(const std::vector<std::string> &workloads,
                         const facsim::BuildOptions &build,
                         size_t cap_per_workload);

/**
 * Record the streams of compress, xlisp and tomcatv (200k accesses
 * each) under @p build, and add fac.predict_ns and
 * hierarchy.access_ns.{paper,modern} over them.
 */
void addStreamLayers(const facsim::BuildOptions &build, Report &rep);

/**
 * Emulator::runWarm to completion (@p period instructions per call,
 * counting sink) of each of @p workloads under @p build, in spans
 * "emulator.runWarm". Adds emulator.warm_ns_per_inst and
 * emulator.block_hit_ratio.
 */
void addWarmLayers(const std::vector<std::string> &workloads,
                   const facsim::BuildOptions &build, uint64_t period,
                   Report &rep);

/**
 * Full-detail fac+stride+waymemo runs of compress, tomcatv and xlisp
 * under @p build on the paper and the modern hierarchy, on @p threads
 * threads. Adds predictor.stride_fail_ratio and
 * predictor.waymemo_saved_ratio over all six, and
 * hierarchy.l1_miss_ratio.{paper,modern} over each preset's three.
 */
void addPredictorProbe(const facsim::BuildOptions &build, unsigned threads,
                       Report &rep);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
