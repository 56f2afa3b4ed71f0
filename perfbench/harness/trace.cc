#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace
{

namespace
{

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_nextId{1};
std::atomic<uint32_t> g_nextTid{1};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local uint64_t t_current = 0;
thread_local uint64_t t_group = 0;
thread_local uint32_t t_tid = 0;

uint32_t
threadId()
{
    if (!t_tid)
        t_tid = g_nextTid.fetch_add(1);
    return t_tid;
}

} // namespace

void setEnabled(bool on) { g_on.store(on); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

GroupScope::GroupScope(uint64_t group) : saved_(t_group) { t_group = group; }
GroupScope::~GroupScope() { t_group = saved_; }

Span::Span(const char *name, uint64_t parent) : name_(name)
{
    if (!enabled())
        return;
    t0_ = nowNs();
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent ? parent : t_current;
    savedCurrent_ = t_current;
    t_current = id_;
}

Span::~Span()
{
    if (!id_)
        return;
    Record r{name_, id_, parent_, t_group, t0_, nowNs(), threadId()};
    t_current = savedCurrent_;
    std::lock_guard<std::mutex> lk(g_mu);
    g_records.push_back(r);
}

std::vector<Record>
records()
{
    std::lock_guard<std::mutex> lk(g_mu);
    return g_records;
}

std::map<std::string, NameStats>
byName()
{
    std::vector<Record> recs = records();
    std::unordered_map<uint64_t, std::vector<size_t>> kids;
    for (size_t i = 0; i < recs.size(); ++i)
        if (recs[i].parent)
            kids[recs[i].parent].push_back(i);

    std::map<std::string, NameStats> out;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Record &r : recs) {
        // Self time: the span's interval minus the union of its
        // children's intervals (children on worker threads overlap).
        iv.clear();
        auto it = kids.find(r.id);
        if (it != kids.end())
            for (size_t k : it->second)
                iv.emplace_back(std::max(recs[k].t0, r.t0),
                                std::min(recs[k].t1, r.t1));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, end = r.t0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        NameStats &ns = out[r.name];
        double dur = static_cast<double>(r.t1 - r.t0) * 1e-9;
        ++ns.count;
        ns.totalS += dur;
        ns.selfS += dur - static_cast<double>(covered) * 1e-9;
        ns.durS.push_back(dur);
    }
    return out;
}

bool
writeChromeJson(const std::string &path)
{
    std::vector<Record> recs = records();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t base = recs.empty() ? 0 : recs.front().t0;
    for (const Record &r : recs)
        base = std::min(base, r.t0);
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < recs.size(); ++i) {
        const Record &r = recs[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"group\":%llu}}%s\n",
                     r.name, r.tid, (r.t0 - base) * 1e-3,
                     (r.t1 - r.t0) * 1e-3,
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.group),
                     i + 1 < recs.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

std::string
selfTimeTable()
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-28s %9s %12s %12s %12s\n",
                  "span", "count", "total_ms", "self_ms", "mean_us");
    out += line;
    for (const auto &[name, ns] : byName()) {
        std::snprintf(line, sizeof(line),
                      "%-28s %9llu %12.3f %12.3f %12.3f\n", name.c_str(),
                      static_cast<unsigned long long>(ns.count),
                      ns.totalS * 1e3, ns.selfS * 1e3,
                      ns.count ? ns.totalS * 1e6 / ns.count : 0.0);
        out += line;
    }
    return out;
}

} // namespace perfbench::trace
