/**
 * @file
 * The live-point layers (sim/lvpt, sim/sampling): the farm's sampling
 * and configurations, a farm round replayed with spans around each
 * layer call, and the lvpt.* / farm.* metrics from those spans. Used by
 * sampled_farm, and by timing_sweep's traced run over small libraries
 * of its own.
 */

#ifndef PERFBENCH_FARM_LAYERS_HH
#define PERFBENCH_FARM_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/config.hh"
#include "sim/lvpt.hh"
#include "sim/runner.hh"
#include "trace.hh"

namespace perfbench
{

/** Period 20000, warmup 2000, detail 1000. */
facsim::SamplingConfig farmSampling();
/** baselineConfig(32) on the modern hierarchy. */
facsim::PipelineConfig farmBaseCfg();
/** fac+stride+waymemo, 32-byte blocks, on the modern hierarchy. */
facsim::PipelineConfig farmFacCfg();

/** Simulated instructions and cycles of the farm windows, by config. */
struct WindowStats
{
    uint64_t insts[2] = {0, 0}, cycles[2] = {0, 0};
};

/**
 * runFarm's per-entry job over @p lib with spans around each layer
 * call: machine.build, lvpt.restore, then farm.window.fac and
 * farm.window.baseline (warmup + measured window) for the matched pair.
 * Adds the windows to @p ws, and the round's summed job time and mean
 * queue wait to @p busy and @p wait.
 */
facsim::RunnerReport tracedFarmRound(const facsim::LvptLibrary &lib,
                                     unsigned threads, WindowStats *ws,
                                     std::vector<double> *busy,
                                     std::vector<double> *wait);

/**
 * Add lvpt.write_s (lvpt.build minus emulator.runWarm time),
 * lvpt.bytes_per_point, lvpt.open_ms, lvpt.restore_us_per_point and
 * farm.window_us_per_point from @p spans, for libraries totalling
 * @p lib_bytes over @p entries live points.
 */
void addLvptLayers(std::map<std::string, trace::NameStats> &spans,
                   uint64_t lib_bytes, uint64_t entries, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_FARM_LAYERS_HH
