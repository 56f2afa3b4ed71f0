/**
 * @file
 * Entry point of the facsim benchmark's load generator:
 *
 *   perfbench <timing_sweep|sampled_farm> --seed N
 *             --seconds S --trace 0|1 [--cli FACSIM_CLI] [--out DIR]
 *             [--threads N] [--spawn-mono T]
 *   perfbench selftest
 *
 * A workload run prints its report, then as its last line one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
 * builds this program and facsim, and passes these arguments.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "bench.hh"
#include "trace.hh"
#include "util/percentile.hh"

namespace perfbench
{

double
secondsSinceSpawn(const Args &args)
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    double now = static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
    return now - args.spawnMono;
}

double
selfPeakRssMb()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
selfCpuSeconds()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return facsim::percentile(v, 0.5);
}

uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
fmt(const char *f, ...)
{
    va_list ap;
    va_start(ap, f);
    char buf[1024];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace perfbench

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg);
    std::exit(2);
}

void
printReport(const Args &args, const Report &rep)
{
    std::printf("== %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string &n : rep.notes)
        std::printf("   %s\n", n.c_str());
    for (const Report::Metric &m : rep.metrics)
        std::printf("   metric %-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("   operations attempted %llu failed %llu\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    std::printf("   simulated-statistics digest %016llx\n",
                static_cast<unsigned long long>(rep.digest));
    for (const std::string &f : rep.failures)
        std::printf("   CHECK FAILED: %s\n", f.c_str());
    std::printf("   checks %s\n", rep.failures.empty() ? "passed" : "FAILED");

    std::string js = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         rep.failures.empty() ? "true" : "false",
                         static_cast<unsigned long long>(rep.attempted),
                         static_cast<unsigned long long>(rep.failed));
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Report::Metric &m = rep.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        js += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("usage: perfbench <workload|selftest> [options]");
    Args args;
    args.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("option " + a + " needs a value").c_str());
        const char *v = argv[++i];
        if (a == "--seed")
            args.seed = std::strtoull(v, nullptr, 0);
        else if (a == "--seconds")
            args.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            args.trace = std::strcmp(v, "0") != 0;
        else if (a == "--cli")
            args.cli = v;
        else if (a == "--out")
            args.outDir = v;
        else if (a == "--threads")
            args.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        else if (a == "--spawn-mono")
            args.spawnMono = std::strtod(v, nullptr);
        else
            usage(("unknown option " + a).c_str());
    }
    if (args.threads == 0 || args.seconds <= 0.0)
        usage("--threads and --seconds must be positive");
    if (args.workload == "selftest")
        return runSelfTest(args);

    if (args.trace)
        trace::setEnabled(true);
    Report rep;
    if (args.workload == "timing_sweep")
        runTimingSweep(args, rep);
    else if (args.workload == "sampled_farm")
        runSampledFarm(args, rep);
    else
        usage(("unknown workload " + args.workload).c_str());
    if (args.trace) {
        std::string path = fmt("%s/trace_%s_%llu.json", args.outDir.c_str(),
                               args.workload.c_str(),
                               static_cast<unsigned long long>(args.seed));
        if (!trace::writeChromeJson(path))
            rep.check("cannot write trace " + path);
        std::printf("-- per-layer self time (%s)\n%s", path.c_str(),
                    trace::selfTimeTable().c_str());
    }
    printReport(args, rep);
    return 0;
}
