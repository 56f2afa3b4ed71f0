/**
 * @file
 * Shared declarations of the facsim benchmark's load generator: the
 * command line, the per-run report (metrics, operation counts, check
 * failures, simulated-statistics digest) and the two workloads.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The load generator's command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phase. */
    double seconds = 10.0;
    /** Traced run: record spans and report the per-layer metrics. */
    bool trace = false;
    /** facsim_cli binary (the daemon of timing_sweep's traced run). */
    std::string cli;
    /** Scratch directory for libraries, cache files, sockets, traces. */
    std::string outDir = ".bench_out";
    /** Worker threads per load (also serving clients and daemon jobs). */
    unsigned threads = 4;
    /** CLOCK_MONOTONIC seconds at which run.py started this process. */
    double spawnMono = 0.0;
};

/** What one run prints: metrics, operation counts and check results. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** One line per failed output check; empty = correct. */
    std::vector<std::string> failures;
    /** FNV-1a over every simulated result, in a fixed order. */
    uint64_t digest = 0xcbf29ce484222325ull;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a check outcome; @p err empty means it passed. */
    void
    check(const std::string &err)
    {
        if (!err.empty())
            failures.push_back(err);
    }
    void
    foldDigest(const std::string &bytes)
    {
        digest = facsim::ser::fnv1a(bytes.data(), bytes.size(), digest);
    }
    void note(const std::string &line) { notes.push_back(line); }
};

/** Seconds since run.py spawned this process (its cold set-up clock). */
double secondsSinceSpawn(const Args &args);

/** Peak resident set of this process so far, in MB. */
double selfPeakRssMb();

/** CPU seconds (user + system, all threads) this process has used. */
double selfCpuSeconds();

/**
 * @p work per host second, where a host second is one second of CPU
 * time per worker thread: work / (cpu_s / threads). With every worker
 * busy on a quiet host it equals the wall-clock rate. Unlike that rate
 * it leaves out time a shared host takes away from the process (a
 * virtual machine's steal time), which moved wall-clock rates by up to
 * 25% between runs of the same code. Workers the program leaves idle
 * are left out too; runner.makespan_over_ideal shows those.
 */
inline double
cpuRate(double work, double cpu_s, unsigned threads)
{
    return cpu_s > 0.0 ? work * threads / cpu_s : 0.0;
}

/** Median of @p v (0 when empty); @p v is taken by value and sorted. */
double median(std::vector<double> v);

/** splitmix64 step: the benchmark's only source of input randomness. */
uint64_t splitmix(uint64_t &state);

/** printf into a std::string. */
std::string fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

/** @{ @name Workloads (fill @p rep) */
void runTimingSweep(const Args &args, Report &rep);
void runSampledFarm(const Args &args, Report &rep);
/** @} */

/** Feed every output check a wrong input; 0 when all reject it. */
int runSelfTest(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
