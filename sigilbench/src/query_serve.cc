/**
 * @file
 * query_serve: sigild answering a closed-loop query mix. Set-up
 * records the 13 kernel traces, starts the daemon in-process (default
 * worker count) and loads the traces into its catalog over the
 * socket; its repetitions are spread over the run, and the clients
 * serve the current daemon between them. kClients threads each send
 * the seven read ops in equal shares, in a seeded order, with one
 * Load+Unload pair in every kWriteEvery requests, and reconnect every
 * kReconnectEvery requests. Every response is compared with the
 * in-process rendering of the same query.
 */

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "common.hh"
#include "core/profile_io.hh"
#include "core/profile_query.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

namespace sigilbench {
namespace {

using sigil::workloads::Workload;

constexpr unsigned kClients = 4;
constexpr unsigned kReconnectEvery = 64;
/** Echo round trips per connection cycle, and their message size. */
constexpr unsigned kEchoPerCycle = 8;
constexpr std::size_t kEchoBytes = 64;
/**
 * Each client's every kWriteEvery-th request is a Load+Unload pair:
 * about a third of slowdown_x on a 4-CPU Xeon host, so a load that
 * gets twice as slow moves it past its bound.
 */
constexpr unsigned kWriteEvery = 1024;
constexpr std::size_t kSetups = 5;
/** Shortest serving stretch between set-ups. */
constexpr double kMinServeSeconds = 0.25;
constexpr double kMaxTracedSeconds = 4.0;
/** Function-query targets per kernel, and diff pairs overall. */
constexpr unsigned kFunctionsPerKernel = 4;
constexpr unsigned kDiffPairs = 16;

enum ReadOp { kFunction, kEdges, kSummary, kList, kProfile, kDiff,
              kPartition, kReadOps };

const char *const kOpNames[kReadOps] = {
    "function", "edges", "summary", "list", "profile", "diff",
    "partition"};
const char *const kQuerySpan[kReadOps] = {
    "query.function", "query.edges", "query.summary", "query.list",
    "query.profile", "query.diff", "query.partition"};
const char *const kRenderSpan[kReadOps] = {
    "render.function", "render.edges", "render.summary", "render.list",
    "render.profile", "render.diff", "render.partition"};

/** One distinct read query and its in-process answer. */
struct Query
{
    ReadOp op;
    std::string a, b; ///< kernel names, or kernel + function name
    std::string expected;
    double renderS = 0; ///< median in-process render time
};

/** The daemon plus what set-up loaded into it. */
struct Daemon
{
    std::unique_ptr<sigil::server::ProfileQueryServer> server;
    std::vector<std::string> kernels;
    std::string socket;
};

std::string
tracePath(const Options &opt, const std::string &kernel)
{
    return opt.workDir + "/qtraces/" + kernel + ".sgb";
}

/** Record all kernels, start sigild, load the traces over the socket. */
bool
setUp(const Options &opt, Daemon &d, std::string *err)
{
    d.server.reset();
    d.kernels.clear();
    // Repeated set-ups must not stack up in different threads' arenas.
    releaseFreeHeap();
    std::filesystem::remove_all(opt.workDir + "/qtraces");
    std::filesystem::create_directories(opt.workDir + "/qtraces");
    // Registry order, not the seed's: the catalog's load sequence
    // shapes the heap, and with it the peak resident set.
    for (const Workload &w : sigil::workloads::parsecWorkloads()) {
        std::ofstream os(tracePath(opt, w.name),
                         std::ios::binary | std::ios::trunc);
        sigil::vg::Guest guest(w.name);
        sigil::vg::BinaryTraceRecorder rec(os, sigil::vg::TraceFormat::SGB3);
        guest.addTool(&rec);
        w.run(guest, opt.scale);
        guest.finish();
        d.kernels.push_back(w.name);
    }

    sigil::server::ServerConfig cfg;
    cfg.unixPath = d.socket;
    d.server = std::make_unique<sigil::server::ProfileQueryServer>(cfg);
    if (!d.server->start(err))
        return false;

    // One load at a time: concurrent replays would make the peak
    // resident set depend on how the loads happen to overlap.
    auto c = sigil::server::QueryClient::connectUnix(d.socket);
    for (const std::string &k : d.kernels) {
        sigil::server::QueryResult r = c.load(k, tracePath(opt, k));
        if (!r.ok)
            *err += "load " + k + ": " + r.error + "; ";
    }
    return err->empty();
}

double
timeRender(const Query &q, const sigil::core::SigilProfile &pa,
           const sigil::core::SigilProfile *pb, std::string *text,
           SpanLog *log)
{
    ScopedSpan span(log, kRenderSpan[q.op]);
    double t0 = nowSeconds();
    switch (q.op) {
    case kFunction:
        *text = sigil::core::functionQueryText(pa, q.b);
        break;
    case kEdges:
        *text = sigil::core::edgesQueryText(pa);
        break;
    case kSummary:
        *text = sigil::core::summaryQueryText(pa);
        break;
    case kProfile:
        *text = sigil::core::profileQueryText(pa);
        break;
    case kDiff:
        *text = sigil::core::diffQueryText(pa, *pb);
        break;
    case kPartition:
        *text = sigil::server::partitionQueryText(pa);
        break;
    case kList:
    case kReadOps:
        break;
    }
    return nowSeconds() - t0;
}

using Profiles =
    std::map<std::string, std::shared_ptr<const sigil::core::SigilProfile>>;

/** Check every catalog profile against its reference digest. */
Profiles
checkCatalog(const Options &opt, const References &refs, Daemon &d,
             Outcome &out, double *catalog_mb)
{
    Profiles profiles;
    std::uint64_t bytes = 0;
    for (const std::string &k : d.kernels) {
        auto p = d.server->catalog().find(k);
        if (!out.count(p != nullptr))
            continue;
        std::ostringstream os;
        sigil::core::writeProfile(os, *p);
        out.count(refs.check(k, opt.scale, os.str()));
        bytes += sigil::core::profileMemoryEstimate(*p);
        profiles[k] = p;
    }
    *catalog_mb = static_cast<double>(bytes) / 1e6;
    return profiles;
}

/** Build the query set and render each query in-process, reps times. */
std::vector<Query>
buildQueries(const Profiles &profiles, const Daemon &d, Rng &rng, int reps,
             SpanLog *log)
{
    std::vector<Query> qs;
    std::vector<std::string> loaded;
    for (const std::string &k : d.kernels) {
        if (!profiles.count(k))
            continue;
        loaded.push_back(k);
        for (ReadOp op : {kEdges, kSummary, kProfile, kPartition})
            qs.push_back({op, k, "", "", 0});
        std::vector<std::string> fns;
        for (const sigil::core::SigilRow &row : profiles.at(k)->rows)
            if (!row.fnName.empty() &&
                std::find(fns.begin(), fns.end(), row.fnName) == fns.end())
                fns.push_back(row.fnName);
        for (unsigned i = 0; i < kFunctionsPerKernel && !fns.empty(); ++i)
            qs.push_back({kFunction, k, fns[rng.below(fns.size())], "", 0});
    }
    for (unsigned i = 0; i < kDiffPairs && !loaded.empty(); ++i)
        qs.push_back({kDiff, loaded[rng.below(loaded.size())],
                      loaded[rng.below(loaded.size())], "", 0});
    qs.push_back({kList, "", "", "", 0});

    for (Query &q : qs) {
        if (q.op == kList)
            continue;
        const sigil::core::SigilProfile &pa = *profiles.at(q.a);
        const sigil::core::SigilProfile *pb =
            q.op == kDiff ? profiles.at(q.b).get() : nullptr;
        std::vector<double> times;
        for (int r = 0; r < reps; ++r)
            times.push_back(timeRender(q, pa, pb, &q.expected, log));
        q.renderS = median(times);
    }
    return qs;
}

/** List answers: every kernel once, plus only scratch loads. */
bool
listOk(const std::string &text, const std::vector<std::string> &kernels)
{
    std::set<std::string> seen;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("scratch.", 0) == 0)
            continue;
        if (!seen.insert(line).second)
            return false;
    }
    return seen == std::set<std::string>(kernels.begin(), kernels.end());
}

/**
 * The baseline of query latency: a small message's round trip over a
 * Unix socket pair to a thread that echoes it back. No sigil code
 * runs on it, so it tracks the host's IPC and scheduling speed of the
 * moment; each client interleaves echoes with its queries.
 */
class EchoPair
{
  public:
    EchoPair()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0)
            thread_ = std::thread([this] { serve(); });
    }

    ~EchoPair()
    {
        if (thread_.joinable()) {
            ::shutdown(fds_[0], SHUT_WR);
            thread_.join();
        }
        for (int fd : fds_)
            if (fd >= 0)
                ::close(fd);
    }

    EchoPair(const EchoPair &) = delete;
    EchoPair &operator=(const EchoPair &) = delete;

    /** Seconds of one round trip, or a negative value on error. */
    double
    roundTrip()
    {
        char buf[kEchoBytes] = {};
        double t0 = nowSeconds();
        if (!thread_.joinable() || !transfer(fds_[0], buf, true) ||
            !transfer(fds_[0], buf, false))
            return -1.0;
        return nowSeconds() - t0;
    }

  private:
    /** Send or receive exactly kEchoBytes. */
    static bool
    transfer(int fd, char *buf, bool send)
    {
        std::size_t done = 0;
        while (done < kEchoBytes) {
            ssize_t n = send ? ::write(fd, buf + done, kEchoBytes - done)
                             : ::read(fd, buf + done, kEchoBytes - done);
            if (n <= 0)
                return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    }

    void
    serve()
    {
        char buf[kEchoBytes];
        while (transfer(fds_[1], buf, false) && transfer(fds_[1], buf, true))
        {
        }
    }

    int fds_[2] = {-1, -1};
    std::thread thread_;
};

/** One client thread's results. */
struct ClientStats
{
    std::uint64_t attempted = 0, failed = 0, requests = 0;
    std::uint64_t responseBytes = 0;
    Histogram readLatency[kReadOps];
    Histogram echo;
    /** Load+Unload pairs: round-trip seconds of each. */
    std::vector<double> loadLatency;
    /** Traced runs only: latency minus render time, per read. */
    std::vector<double> overhead;
    double renderSum = 0;
    double busyS = 0;
    SpanLog log;
};

void
clientLoop(unsigned stream, const Options &opt, const Daemon &d,
           const std::vector<Query> &qs,
           const std::vector<std::vector<std::size_t>> &by_op,
           double deadline, bool traced, ClientStats &st)
{
    Rng rng(opt.seed * 1000003ull + stream);
    SpanLog *log = traced ? &st.log : nullptr;
    std::string scratch = "scratch." + std::to_string(stream % kClients);
    std::string small_trace = tracePath(opt, "swaptions");
    // Each block of kReadOps reads sends every op once, in a fresh
    // seeded order, so the shares are exactly equal.
    ReadOp order[kReadOps];
    for (int op = 0; op < kReadOps; ++op)
        order[op] = static_cast<ReadOp>(op);
    unsigned next_op = kReadOps;
    // Clients start together; offset their writes so they do not
    // start their loads in step.
    std::uint64_t write_phase = stream % kClients * kWriteEvery / kClients;
    sigil::server::QueryClient client;
    EchoPair echo;
    std::uint64_t seq = 0;
    double t_start = nowSeconds();
    auto check = [&](bool ok) {
        ScopedSpan span(log, "client.check");
        ++st.attempted;
        if (!ok)
            ++st.failed;
    };

    while (nowSeconds() < deadline) {
        if (seq % kReconnectEvery == 0 || !client.valid()) {
            {
                ScopedSpan span(log, "client.echo");
                for (unsigned i = 0; i < kEchoPerCycle; ++i) {
                    double rtt = echo.roundTrip();
                    check(rtt >= 0);
                    st.echo.add(rtt);
                }
            }
            ScopedSpan span(log, "client.connect");
            client = sigil::server::QueryClient::connectUnix(d.socket);
            if (!client.valid()) {
                check(false);
                break;
            }
        }
        std::uint64_t request = (std::uint64_t{stream} << 40) | ++seq;
        if ((seq + write_phase) % kWriteEvery == 0) {
            ScopedSpan span(log, "query.load", request);
            double t0 = nowSeconds();
            sigil::server::QueryResult l = client.load(scratch, small_trace);
            sigil::server::QueryResult u = client.unload(scratch);
            st.loadLatency.push_back(nowSeconds() - t0);
            st.requests += 2;
            check(l.ok && l.text.rfind("loaded " + scratch + ": ", 0) == 0);
            check(u.ok && u.text == "unloaded " + scratch + "\n");
            continue;
        }

        if (next_op == kReadOps) {
            for (unsigned i = kReadOps - 1; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            next_op = 0;
        }
        ReadOp op = order[next_op++];
        const Query &q = qs[by_op[op][rng.below(by_op[op].size())]];

        sigil::server::QueryResult r;
        double t0 = nowSeconds();
        {
            ScopedSpan span(log, kQuerySpan[op], request);
            switch (op) {
            case kFunction: r = client.function(q.a, q.b); break;
            case kEdges: r = client.edges(q.a); break;
            case kSummary: r = client.summary(q.a); break;
            case kList: r = client.list(); break;
            case kProfile: r = client.profile(q.a); break;
            case kDiff: r = client.diff(q.a, q.b); break;
            case kPartition: r = client.partition(q.a); break;
            case kReadOps: break;
            }
        }
        double dt = nowSeconds() - t0;
        ++st.requests;
        st.responseBytes += r.text.size();
        st.readLatency[op].add(dt);
        if (traced)
            st.overhead.push_back(dt - q.renderS);
        st.renderSum += q.renderS;
        check(r.ok && (op == kList ? listOk(r.text, d.kernels)
                                   : r.text == q.expected));
    }
    st.busyS += nowSeconds() - t_start;
}

/**
 * Run kClients client threads for seconds, adding their results to
 * stats; segment numbers the call so each gets fresh query streams.
 * Returns the wall time.
 */
double
runClients(const Options &opt, const Daemon &d, const std::vector<Query> &qs,
           double seconds, bool traced, unsigned segment,
           std::vector<ClientStats> &stats)
{
    std::vector<std::vector<std::size_t>> by_op(kReadOps);
    for (std::size_t i = 0; i < qs.size(); ++i)
        by_op[qs[i].op].push_back(i);
    std::vector<std::thread> threads;
    double t0 = nowSeconds();
    double deadline = t0 + seconds;
    for (unsigned t = 0; t < kClients; ++t)
        threads.emplace_back(clientLoop, segment * kClients + t,
                             std::cref(opt), std::cref(d), std::cref(qs),
                             std::cref(by_op), deadline, traced,
                             std::ref(stats[t]));
    for (std::thread &t : threads)
        t.join();
    return nowSeconds() - t0;
}

void
merge(Outcome &out, const std::vector<ClientStats> &stats)
{
    for (const ClientStats &s : stats) {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
}

Histogram
allReads(const std::vector<ClientStats> &stats)
{
    Histogram h;
    for (const ClientStats &s : stats)
        for (const Histogram &op : s.readLatency)
            h.merge(op);
    return h;
}

std::vector<double>
allLoads(const std::vector<ClientStats> &stats)
{
    std::vector<double> v;
    for (const ClientStats &s : stats)
        v.insert(v.end(), s.loadLatency.begin(), s.loadLatency.end());
    return v;
}

std::uint64_t
totalRequests(const std::vector<ClientStats> &stats)
{
    std::uint64_t n = 0;
    for (const ClientStats &s : stats)
        n += s.requests;
    return n;
}

void
reportEndToEnd(Outcome &out, const std::vector<ClientStats> &stats,
               double wall)
{
    Histogram reads = allReads(stats);
    std::vector<double> loads = allLoads(stats);
    Histogram echo;
    for (const ClientStats &s : stats)
        echo.merge(s.echo);
    double p50 = reads.quantile(0.50), p99 = reads.quantile(0.99);
    double echo50 = echo.quantile(0.50);
    // Client time per request over every request of the loop, reads
    // and Load+Unload pairs alike (a pair counts as its two requests),
    // each taken at the median latency of its kind, so that host
    // contention spikes do not dominate it. A read-path gain that
    // costs loads shows here: the pairs are about a third of it.
    double request_s = median(loads) * static_cast<double>(loads.size());
    for (int op = 0; op < kReadOps; ++op) {
        Histogram h;
        for (const ClientStats &s : stats)
            h.merge(s.readLatency[op]);
        request_s += h.quantile(0.50) * static_cast<double>(h.count());
    }
    double per_request =
        request_s / static_cast<double>(totalRequests(stats));
    out.values["slowdown_x"] = per_request / echo50;
    char line[400];
    std::snprintf(line, sizeof(line),
                  "query_serve: query_rps %.1f; query_p50_us %.2f and "
                  "query_p99_us %.2f over %llu reads (%llu beyond p99); "
                  "request_us %.2f (at each kind's median); "
                  "echo_p50_us %.2f over %llu round trips (p99 %.2fx "
                  "echo); load_p50_ms %.3f over %zu loads",
                  static_cast<double>(totalRequests(stats)) / wall,
                  1e6 * p50, 1e6 * p99,
                  static_cast<unsigned long long>(reads.count()),
                  static_cast<unsigned long long>(reads.count() / 100),
                  1e6 * per_request, 1e6 * echo50,
                  static_cast<unsigned long long>(echo.count()), p99 / echo50,
                  1e3 * median(loads), loads.size());
    out.notes.push_back(line);
}

void
reportPerLayer(Outcome &out, const Daemon &d, const SpanLog &render_log,
               const std::vector<ClientStats> &traced,
               const std::vector<ClientStats> &untraced)
{
    for (int op = 0; op < kReadOps; ++op) {
        Histogram h;
        for (const ClientStats &s : traced)
            h.merge(s.readLatency[op]);
        out.values[std::string("server.") + kOpNames[op] + "_p50_us"] =
            1e6 * h.quantile(0.5);
        std::vector<double> r;
        for (const SpanLog::Span &s : render_log.spans())
            if (std::string_view(s.name) == kRenderSpan[op])
                r.push_back(1e-9 * static_cast<double>(s.endNs - s.startNs));
        if (op == kPartition)
            out.values["cdfg.partition_render_us"] = 1e6 * median(r);
        else if (op != kList)
            out.values[std::string("core.render_") + kOpNames[op] + "_us"] =
                1e6 * median(r);
    }
    std::vector<double> overhead;
    std::uint64_t response_bytes = 0;
    for (const ClientStats &s : traced) {
        overhead.insert(overhead.end(), s.overhead.begin(),
                        s.overhead.end());
        response_bytes += s.responseBytes;
    }
    for (const ClientStats &s : untraced)
        response_bytes += s.responseBytes;
    out.values["server.overhead_p50_us"] = 1e6 * median(overhead);
    out.values["server.load_p50_ms"] = 1e3 * median(allLoads(traced));

    const sigil::server::ProfileQueryServer &srv = *d.server;
    out.values["server.requests_served"] = srv.requestsServed();
    out.values["server.protocol_errors"] = srv.protocolErrors();
    out.values["server.timeouts"] = srv.timeouts();
    out.values["server.connections"] = srv.connectionsAccepted();
    out.values["server.catalog_evictions"] =
        d.server->catalog().evictions();
    out.values["server.response_bytes"] =
        static_cast<double>(response_bytes);

    auto mean = [](const Histogram &h) {
        return h.count() ? h.sum() / static_cast<double>(h.count()) : 0.0;
    };
    out.values["trace.overhead_frac"] =
        mean(allReads(traced)) / mean(allReads(untraced)) - 1.0;

    // End to end is the client threads' busy time in the traced phase,
    // less the benchmark's own checks and echo baseline; the layers
    // are the self times of the request spans, each read split into
    // its in-process render time and the server's rest. The layers
    // thus cover the spans: the residual is loop code outside them.
    double busy = 0, render = 0, reads = 0, loads = 0, connect = 0,
           checks = 0, echo = 0;
    for (const ClientStats &s : traced) {
        busy += s.busyS;
        render += s.renderSum;
        std::map<std::string, double> self = s.log.selfSeconds();
        for (const auto &[name, secs] : self) {
            if (name == "query.load")
                loads += secs;
            else if (name == "client.connect")
                connect += secs;
            else if (name == "client.check")
                checks += secs;
            else if (name == "client.echo")
                echo += secs;
            else
                reads += secs;
        }
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "query_serve benchmark overhead, not a layer: "
                  "client.check %.6f s, client.echo %.6f s",
                  checks, echo);
    out.notes.push_back(line);
    layerSumCheck(out, "query_serve", busy - checks - echo,
                  {{"core.render (+cdfg.partition)", render},
                   {"server.overhead", reads - render},
                   {"server.load+unload", loads},
                   {"client.connect", connect}});
}

} // namespace

Outcome
runQueryServe(const Options &opt, const References &refs)
{
    Outcome out;
    Rng rng(opt.seed);
    Daemon d;
    d.socket = opt.workDir + "/sigild.sock";

    // Fixed allocator thresholds. With glibc's dynamic ones, the free
    // space a worker or client thread's arena keeps resident depends
    // on which thread last freed a large block, and the serving peak
    // moved between 20 and 40 MB from run to run.
    mallopt(M_TRIM_THRESHOLD, 1024 * 1024);
    mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);

    // Set-up repetitions are spread over the run, as in the kernel
    // workloads. Each one replaces the daemon; between them the clients
    // serve the current one. A traced run traces the last few seconds
    // only: per-request spans pile up fast, and the untraced part
    // before them is the baseline of the tracing overhead.
    SetupSchedule setups(kSetups, opt);
    SpanLog render_log;
    std::vector<Query> qs;
    std::vector<ClientStats> untraced(kClients), traced(kClients);
    double catalog_mb = 0, wall = 0, peak_rss = 0;
    unsigned segment = 0;
    while (setups.running() || segment == 0) {
        std::string err;
        bool ok = true;
        if (setups.runIfDue([&] {
                double t0 = nowSeconds();
                ok = setUp(opt, d, &err);
                return nowSeconds() - t0;
            })) {
            if (!out.count(ok)) {
                std::fprintf(stderr, "FAIL query_serve set-up: %s\n",
                             err.c_str());
                return out;
            }
            Profiles profiles = checkCatalog(opt, refs, d, out, &catalog_mb);
            if (qs.empty())
                qs = buildQueries(profiles, d, rng, opt.trace ? 5 : 3,
                                  opt.trace ? &render_log : nullptr);
            continue;
        }
        double serve_s = std::max(setups.secondsLeft(), kMinServeSeconds);
        double traced_s = opt.trace && setups.done()
                              ? std::min(serve_s / 2, kMaxTracedSeconds)
                              : 0.0;
        // The resident set of interest is the daemon's while it
        // serves; the set-up replays would otherwise set the peak.
        releaseFreeHeap();
        resetPeakRss();
        wall += runClients(opt, d, qs, serve_s - traced_s, false, segment++,
                           untraced);
        if (traced_s > 0)
            runClients(opt, d, qs, traced_s, true, segment++, traced);
        peak_rss = std::max(peak_rss, peakRssMb());
    }
    out.values["setup_s"] = setups.median();
    out.notes.push_back(setups.note("query_serve"));
    out.values["footprint_mb"] = catalog_mb;
    out.values["peak_rss_mb"] = peak_rss;
    merge(out, untraced);
    merge(out, traced);
    if (!opt.trace) {
        reportEndToEnd(out, untraced, wall);
    } else {
        reportPerLayer(out, d, render_log, traced, untraced);
        std::string path = opt.workDir + "/spans-query_serve.jsonl";
        render_log.writeJsonLines(path, "main");
        for (unsigned t = 0; t < kClients; ++t)
            traced[t].log.writeJsonLines(path,
                                         "client" + std::to_string(t));
    }
    d.server->stop();
    return out;
}

} // namespace sigilbench
