/**
 * @file
 * The serving layers, measured in timing_sweep's traced run.
 * `facsim_cli serve` runs as its own process and answers the sweep's
 * timing requests plus one profile request per workload from a closed
 * loop of clients, each waiting for its reply. Cold pass: every
 * request executes once and enters the result cache. The daemon then
 * drains, persisting its --cache-file, and restarts from it; warm
 * passes repeat the whole request set. The codec and ResultCache are
 * also timed in process over the same payloads.
 */

#include "serve_layers.hh"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "checks.hh"
#include "obs/sampler.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"
#include "trace.hh"

extern char **environ;

using namespace facsim;
using namespace facsim::serve;

namespace perfbench
{

namespace
{

/** Warm passes over the whole request set after the restart. */
constexpr int warmPasses = 100;
/** Pings timed for the wire round trip. */
constexpr int pings = 1000;

struct ServeRequest
{
    bool timing;
    ProfileRequest preq;
    TimingRequest treq;
    std::string body;       ///< encoded request
    std::string reference;  ///< encoded result of the in-process run
    double inprocS;         ///< host seconds of the in-process run
    std::string label;
};

/** A running daemon: spawned, reaped by stop(). */
struct Daemon
{
    pid_t pid = -1;
    double launchS = 0.0;

    bool
    start(const Args &args, const std::string &sock,
          const std::string &cache_file, std::string *err)
    {
        ::unlink(sock.c_str());
        std::vector<std::string> argv_s = {
            args.cli, "serve", "--socket=" + sock,
            "--jobs=" + std::to_string(args.threads),
            "--cache-file=" + cache_file};
        std::vector<char *> argv;
        for (std::string &s : argv_s)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        trace::Span sp("daemon.launch");
        Clock::time_point t0 = Clock::now();
        if (posix_spawn(&pid, args.cli.c_str(), nullptr, nullptr,
                        argv.data(), environ) != 0) {
            *err = "cannot start " + args.cli;
            pid = -1;
            return false;
        }
        // Launch-to-first-ping, polled every 200 us.
        while (secondsSince(t0) < 30.0) {
            std::string e;
            int fd = connectUnix(sock, &e);
            if (fd >= 0) {
                ServeClient c(fd);
                if (c.ping(&e)) {
                    launchS = secondsSince(t0);
                    return true;
                }
            }
            ::usleep(200);
        }
        *err = "daemon did not answer a ping within 30 s";
        return false;
    }

    /** Ask for a drain over @p sock and reap the process. */
    bool
    stop(const std::string &sock)
    {
        if (pid < 0)
            return false;
        std::string e;
        int fd = connectUnix(sock, &e);
        if (fd >= 0) {
            ServeClient c(fd);
            c.shutdown(&e);
        } else {
            ::kill(pid, SIGTERM);
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
};

/** One closed-loop client's record of its replies. */
struct ClientLog
{
    /** (request index, latency us) of every reply. */
    std::vector<std::pair<size_t, double>> lat;
    uint64_t sent = 0, ok = 0, cachedOk = 0;
    std::vector<std::string> mismatches;
};

/**
 * Closed loop, @p passes times over @p order: send, wait for the
 * reply, record. With @p expect set, every body must equal expect[i]
 * and be marked cached; otherwise the bodies are stored into
 * @p bodies.
 */
void
clientLoop(const std::string &sock, const std::vector<ServeRequest> &reqs,
           const std::vector<size_t> &order, ClientLog *log,
           std::vector<std::string> *bodies,
           const std::vector<std::string> *expect, int passes)
{
    std::string err;
    int fd = connectUnix(sock, &err);
    if (fd < 0) {
        log->mismatches.push_back(err);
        return;
    }
    ServeClient c(fd);
    for (int p = 0; p < passes; ++p) {
        for (size_t i : order) {
            ResponseEnvelope resp;
            WireKind kind = reqs[i].timing ? WireKind::Timing
                                           : WireKind::Profile;
            trace::GroupScope g(i + 1);
            trace::Span sp("serve_client.exchange");
            Clock::time_point s = Clock::now();
            bool ok = c.exchange(kind, reqs[i].body, &resp, &err);
            log->lat.emplace_back(i, secondsSince(s) * 1e6);
            ++log->sent;
            if (!ok || resp.status != WireStatus::Ok) {
                log->mismatches.push_back(reqs[i].label + ": " +
                                          (ok ? resp.body : err));
                continue;
            }
            ++log->ok;
            if (!expect) {
                (*bodies)[i] = resp.body;
                continue;
            }
            log->cachedOk += resp.cached;
            if (resp.body != (*expect)[i])
                log->mismatches.push_back(reqs[i].label +
                                          ": warm body differs from cold");
        }
    }
}

/** Run one phase on @p n clients; client t takes every n-th request. */
void
phase(const std::string &sock, const std::vector<ServeRequest> &reqs,
      unsigned n, std::vector<ClientLog> *logs,
      std::vector<std::string> *bodies,
      const std::vector<std::string> *expect, int passes)
{
    logs->assign(n, ClientLog{});
    std::vector<std::thread> th;
    for (unsigned t = 0; t < n; ++t) {
        std::vector<size_t> order;
        for (size_t i = t; i < reqs.size(); i += n)
            order.push_back(i);
        th.emplace_back(clientLoop, sock, std::cref(reqs), order,
                        &(*logs)[t], bodies, expect, passes);
    }
    for (std::thread &x : th)
        x.join();
}

/** Median ns per call of @p fn over @p n calls, five passes. */
template <class Fn>
double
nsPerCall(const char *span, size_t n, Fn &&fn)
{
    std::vector<double> ns;
    for (int p = 0; p < 5; ++p) {
        trace::Span sp(span);
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < n; ++i)
            fn(i);
        ns.push_back(secondsSince(t0) * 1e9 / n);
    }
    return median(ns);
}

std::vector<ServeRequest>
requestSet(const std::vector<ServedTiming> &timings, uint64_t build_seed)
{
    std::vector<ServeRequest> reqs;
    for (const ServedTiming &t : timings) {
        ServeRequest r{};
        r.timing = true;
        r.treq = t.req;
        ser::Writer w;
        encodeTimingRequest(w, r.treq);
        r.body = w.data();
        r.reference = t.result;
        r.inprocS = t.inprocS;
        r.label = t.label + " (served)";
        reqs.push_back(std::move(r));
    }
    // One profile request per workload, both FAC block sizes, run to
    // completion in process here for the reference.
    for (const WorkloadInfo &wi : allWorkloads()) {
        ServeRequest r{};
        r.timing = false;
        r.preq.workload = wi.name;
        r.preq.build.seed = build_seed;
        r.preq.facConfigs = {facConfigFor(baselineConfig(16).dcache),
                             facConfigFor(baselineConfig(32).dcache)};
        ser::Writer w;
        encodeProfileRequest(w, r.preq);
        r.body = w.data();
        Clock::time_point t0 = Clock::now();
        ProfileResult pr = runProfile(r.preq);
        r.inprocS = secondsSince(t0);
        ser::Writer rw;
        encodeProfileResult(rw, pr);
        r.reference = rw.data();
        r.label = std::string(wi.name) + "/profile (served)";
        reqs.push_back(std::move(r));
    }
    return reqs;
}

} // namespace

void
measureServeLayers(const Args &args, const std::vector<ServedTiming> &timings,
                   uint64_t build_seed, Report &rep)
{
    std::vector<ServeRequest> reqs = requestSet(timings, build_seed);
    std::string sock = args.outDir + "/serve.sock";
    std::string cache_file = args.outDir + "/serve.cache";
    ::unlink(cache_file.c_str());
    unsigned clients = args.threads;

    auto tally = [&](const std::vector<ClientLog> &logs, uint64_t *sent,
                     uint64_t *ok) {
        for (const ClientLog &l : logs) {
            *sent += l.sent;
            *ok += l.ok;
            for (const std::string &m : l.mismatches)
                rep.check(m);
        }
    };

    // Cold pass on the first launch.
    Daemon d1;
    std::string err;
    if (!d1.start(args, sock, cache_file, &err)) {
        rep.check(err);
        return;
    }
    std::vector<std::string> cold(reqs.size());
    std::vector<ClientLog> cold_logs;
    phase(sock, reqs, clients, &cold_logs, &cold, nullptr, 1);
    uint64_t cold_sent = 0, cold_ok = 0;
    tally(cold_logs, &cold_sent, &cold_ok);
    if (!d1.stop(sock))
        rep.check("first daemon did not drain cleanly");

    // Warm passes on the restarted daemon, from the persisted cache.
    Daemon d2;
    if (!d2.start(args, sock, cache_file, &err)) {
        rep.check(err);
        return;
    }
    std::vector<ClientLog> warm_logs;
    phase(sock, reqs, clients, &warm_logs, nullptr, &cold, warmPasses);
    uint64_t warm_sent = 0, warm_ok = 0, warm_cached = 0;
    tally(warm_logs, &warm_sent, &warm_ok);
    for (const ClientLog &l : warm_logs)
        warm_cached += l.cachedOk;

    obs::StatsSnapshot snap;
    std::vector<double> rtt;
    int fd = connectUnix(sock, &err);
    if (fd < 0) {
        rep.check("cannot connect for stats: " + err);
    } else {
        ServeClient c(fd);
        std::string json, prom;
        if (!c.stats(&json, &prom, &err) ||
            !obs::parseStatsJson(json, &snap, &err))
            rep.check("stats request failed: " + err);
        for (int i = 0; i < pings; ++i) {
            trace::Span sp("serve_client.ping");
            Clock::time_point s = Clock::now();
            if (!c.ping(&err)) {
                rep.check("ping failed: " + err);
                break;
            }
            rtt.push_back(secondsSince(s) * 1e6);
        }
    }
    if (!d2.stop(sock))
        rep.check("restarted daemon did not drain cleanly");
    rep.attempted += cold_sent + warm_sent;
    rep.failed += (cold_sent - cold_ok) + (warm_sent - warm_ok);

    // Checks: one OK reply per request; cold bodies equal in-process
    // runs of the same requests; warm bodies byte-identical to cold
    // (checked per reply above) and all answered from the cache, with
    // no execution after the restart.
    rep.check(checkReplies("served cold pass", cold_sent, cold_ok));
    rep.check(checkReplies("served warm passes", warm_sent, warm_ok));
    rep.check(checkReplies("warm replies marked cached", warm_sent,
                           warm_cached));
    rep.check(checkWarmCounters(snap["cache.hits"], snap["cache.misses"],
                                warm_sent));
    for (size_t i = 0; i < reqs.size(); ++i)
        rep.check(checkColdResponse(reqs[i].label, reqs[i].timing, cold[i],
                                    reqs[i].reference));

    // In-process codec and ResultCache timings over the same payloads.
    double dec_req = nsPerCall("codec.decode_request", reqs.size(),
                               [&](size_t i) {
        ser::TryReader r(reqs[i].body.data(), reqs[i].body.size());
        if (reqs[i].timing) {
            TimingRequest q;
            decodeTimingRequest(r, &q);
        } else {
            ProfileRequest q;
            decodeProfileRequest(r, &q);
        }
    });
    std::vector<TimingResult> tres(reqs.size());
    std::vector<ProfileResult> pres(reqs.size());
    double dec_res = nsPerCall("codec.decode_result", reqs.size(),
                               [&](size_t i) {
        ser::TryReader r(cold[i].data(), cold[i].size());
        if (reqs[i].timing)
            decodeTimingResult(r, &tres[i]);
        else
            decodeProfileResult(r, &pres[i]);
    });
    double enc_res = nsPerCall("codec.encode_result", reqs.size(),
                               [&](size_t i) {
        ser::Writer w;
        if (reqs[i].timing)
            encodeTimingResult(w, tres[i]);
        else
            encodeProfileResult(w, pres[i]);
    });
    std::vector<CacheKey> keys(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        keys[i].kind = reqs[i].timing ? 2 : 1;
        const std::string &b = reqs[i].body;
        keys[i].requestFp = ser::fnv1a(b.data(), b.size());
        if (reqs[i].timing)
            keys[i].configFp = configFingerprint(reqs[i].treq.pipe);
    }
    ResultCache rc(0);
    double ins = nsPerCall("result_cache.insert", reqs.size(),
                           [&](size_t i) { rc.insert(keys[i], cold[i]); });
    std::string payload;
    double look = nsPerCall("result_cache.lookup", reqs.size(),
                            [&](size_t i) { rc.lookup(keys[i], &payload); });
    std::string rc_path = args.outDir + "/layer.cache";
    Clock::time_point t0 = Clock::now();
    {
        trace::Span sp("result_cache.save");
        rep.check(rc.save(rc_path) ? "" : "ResultCache::save failed");
    }
    double save_ms = secondsSince(t0) * 1e3;
    ResultCache rc2(0);
    t0 = Clock::now();
    {
        trace::Span sp("result_cache.load");
        rep.check(rc2.load(rc_path) ? "" : "ResultCache::load failed");
    }
    double load_ms = secondsSince(t0) * 1e3;
    if (rc2.entries() != rc.entries())
        rep.check(fmt("ResultCache reloaded %llu of %llu entries",
                      static_cast<unsigned long long>(rc2.entries()),
                      static_cast<unsigned long long>(rc.entries())));

    // Cold client latency minus the in-process run time of the same
    // request: the daemon's queueing, batching and transport.
    std::vector<double> queue_ms;
    for (const ClientLog &l : cold_logs)
        for (auto [i, us] : l.lat)
            queue_ms.push_back(us / 1e3 - reqs[i].inprocS * 1e3);

    rep.note(fmt("served %zu requests (%zu timing, %zu profile) from "
                 "%u clients, daemon --jobs=%u: cold pass %llu, warm "
                 "%d passes %llu; daemon launches %.4f s + %.4f s",
                 reqs.size(), timings.size(), reqs.size() - timings.size(),
                 clients, args.threads,
                 static_cast<unsigned long long>(cold_sent), warmPasses,
                 static_cast<unsigned long long>(warm_sent), d1.launchS,
                 d2.launchS));
    rep.add("codec.decode_request_ns", dec_req, "ns");
    rep.add("codec.encode_result_ns", enc_res, "ns");
    rep.add("codec.decode_result_ns", dec_res, "ns");
    rep.add("result_cache.lookup_ns", look, "ns");
    rep.add("result_cache.insert_ns", ins, "ns");
    rep.add("result_cache.save_ms", save_ms, "ms");
    rep.add("result_cache.load_ms", load_ms, "ms");
    rep.add("result_cache.hit_ratio",
            warm_sent ? snap["cache.hits"] / warm_sent : 0.0, "ratio");
    rep.add("wire.ping_rtt_us", median(rtt), "us");
    rep.add("server.latency_p50_us", snap["serve.latency_p50_us"], "us");
    rep.add("server.cold_queue_ms", median(queue_ms), "ms");
}

} // namespace perfbench
