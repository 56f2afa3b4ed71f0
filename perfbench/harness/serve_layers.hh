/**
 * @file
 * The serving layers (request codec, result cache, wire and daemon),
 * measured in timing_sweep's traced run against a `facsim_cli serve`
 * process that answers the sweep's own requests.
 */

#ifndef PERFBENCH_SERVE_LAYERS_HH
#define PERFBENCH_SERVE_LAYERS_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** A timing request with its in-process result and run time. */
struct ServedTiming
{
    facsim::TimingRequest req;
    std::string label;
    /** encodeTimingResult() of the in-process run. */
    std::string result;
    /** Host seconds of the in-process run. */
    double inprocS = 0.0;
};

/**
 * Serve @p timings plus one profile request per workload (data seed
 * @p build_seed) from a daemon: a cold pass, a drain and restart from
 * the persisted cache file, then warm passes. Checks every reply and
 * the restarted daemon's counters, times the codec and ResultCache in
 * process over the same payloads, and adds the codec.*,
 * result_cache.*, wire.* and server.* metrics to @p rep.
 */
void measureServeLayers(const Args &args,
                        const std::vector<ServedTiming> &timings,
                        uint64_t build_seed, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LAYERS_HH
