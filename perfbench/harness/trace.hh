/**
 * @file
 * In-memory span tracer of the benchmark's traced runs. Spans are
 * recorded from the benchmark's own code around calls into facsim's
 * layers, never from inside the program. Each span carries its name,
 * start, end, the span that opened it (the innermost open span on the
 * same thread, or an explicit cross-thread parent) and a group id
 * shared by every span of one simulation run or one request. Spans
 * stay in memory until the run ends, then go out as Chrome trace-event
 * JSON and as a per-name self-time table.
 *
 * With tracing disabled a Span is one branch on a global flag.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace
{

/** One finished span. Times are ns on the steady clock. */
struct Record
{
    const char *name;
    uint64_t id;
    uint64_t parent;  ///< 0 = root
    uint64_t group;   ///< run / request id (0 = none)
    int64_t t0, t1;
    uint32_t tid;
};

/** Turn recording on or off (spans open at the time keep recording). */
void setEnabled(bool on);
bool enabled();

/** Steady-clock now in ns (the span time base). */
int64_t nowNs();

/** Sets the group id for spans opened on this thread in its scope. */
class GroupScope
{
  public:
    explicit GroupScope(uint64_t group);
    ~GroupScope();
    GroupScope(const GroupScope &) = delete;
    GroupScope &operator=(const GroupScope &) = delete;

  private:
    uint64_t saved_;
};

/** RAII span; a no-op unless tracing is enabled. */
class Span
{
  public:
    /**
     * @param name static string (not copied).
     * @param parent explicit parent span (a span on another thread);
     *        0 = the innermost open span on this thread.
     */
    explicit Span(const char *name, uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

  private:
    const char *name_;
    uint64_t id_ = 0, parent_ = 0, savedCurrent_ = 0;
    int64_t t0_ = 0;
};

/** Per-name totals over every recorded span. */
struct NameStats
{
    uint64_t count = 0;
    double totalS = 0.0;  ///< summed durations
    double selfS = 0.0;   ///< minus the time children cover
    std::vector<double> durS;
};

/** All recorded spans (call after every recording thread finished). */
std::vector<Record> records();

/** Aggregate by span name, with self time per the parent links. */
std::map<std::string, NameStats> byName();

/** Write Chrome trace-event JSON; false on I/O error. */
bool writeChromeJson(const std::string &path);

/** Render the per-name self-time table. */
std::string selfTimeTable();

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
