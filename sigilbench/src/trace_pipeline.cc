/**
 * @file
 * trace_pipeline: record once, analyze later. Each kernel is recorded
 * to an SGB3 file (the write side of vg/trace_io), then the file is
 * mmap-replayed into a SigilProfiler alone and the profile is written
 * (the read side). No CgTool runs here, so a cg change must read
 * "no change" on this workload.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

namespace sigilbench {
namespace {

using sigil::workloads::Workload;

constexpr std::size_t kSetups = 5;
constexpr int kWarmUpRounds = 3;

struct Recorded
{
    double seconds = 0;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
};

double
nativePass(const Workload &w, const Options &opt, SpanLog *log)
{
    releaseFreeHeap();
    ScopedSpan span(log, "pass.native");
    double t0 = nowSeconds();
    sigil::vg::Guest guest(w.name);
    w.run(guest, opt.scale);
    guest.finish();
    return nowSeconds() - t0;
}

Recorded
record(const Workload &w, const Options &opt, const std::string &path,
       SpanLog *log)
{
    releaseFreeHeap();
    Recorded r;
    double t0 = nowSeconds();
    {
        ScopedSpan span(log, "pass.record");
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        sigil::vg::Guest guest(w.name);
        sigil::vg::BinaryTraceRecorder rec(os, sigil::vg::TraceFormat::SGB3);
        guest.addTool(&rec);
        w.run(guest, opt.scale);
        guest.finish();
        r.events = rec.eventsWritten();
    }
    r.seconds = nowSeconds() - t0;
    r.bytes = std::filesystem::file_size(path);
    return r;
}

/**
 * Drive one BinaryReplaySession frame by frame over an existing
 * mapping; with a profiler attached when profiled.
 */
sigil::vg::ReplayReport
replaySession(const Workload &w, std::string_view data, bool profiled,
              SpanLog *log, std::string *profile_bytes)
{
    const char *step_name = profiled ? "sigil.step" : "decode.step";
    const char *finish_name = profiled ? "sigil.finish" : "decode.finish";
    sigil::vg::Guest guest(w.name);
    sigil::core::SigilProfiler profiler;
    if (profiled)
        guest.addTool(&profiler);
    sigil::vg::ReplayOptions ropt;
    ropt.policy = sigil::vg::ReplayPolicy::Salvage;
    sigil::vg::ReplayReport report;
    {
        ScopedSpan span(log, profiled ? "replay.sigil" : "replay.decode");
        sigil::vg::BinaryReplaySession session(data, guest, ropt);
        std::uint64_t frame = 0;
        for (bool more = true; more;) {
            ScopedSpan s(log, step_name, ++frame);
            more = session.step();
        }
        ScopedSpan s(log, finish_name);
        report = session.finish();
    }
    if (profiled) {
        ScopedSpan span(log, "profile.write");
        std::ostringstream os;
        sigil::core::writeProfile(os, profiler.takeProfile());
        *profile_bytes = os.str();
    }
    return report;
}

/** Salvage loss must be zero and every recorded event delivered. */
bool
lossless(const sigil::vg::ReplayReport &r, std::uint64_t recorded)
{
    return r.ok() && !r.sawCorruption() && r.eventsSkipped == 0 &&
           r.resyncs == 0 && r.cleanShutdown &&
           r.eventsDelivered == recorded;
}

std::string
tracePath(const Options &opt, const Workload &w)
{
    return opt.workDir + "/traces/" + w.name + ".sgb";
}

double
setUp(const Options &opt, Rng &rng)
{
    double t0 = nowSeconds();
    std::filesystem::remove_all(opt.workDir + "/traces");
    std::filesystem::create_directories(opt.workDir + "/traces");
    nativeWarmUp(opt, rng, kWarmUpRounds);
    return nowSeconds() - t0;
}

void
untracedRounds(const Options &opt, const References &refs, Outcome &out,
               Rng &rng, SetupSchedule &setups)
{
    // Per kernel: native, record, native, replay; the adjacent native
    // passes are the baseline both directions are divided by.
    KernelSamples native, recording, replay, ratio;
    std::vector<double> bytes_total, events_total;
    while (setups.running() || bytes_total.empty()) {
        if (setups.runIfDue([&] { return setUp(opt, rng); }))
            continue;
        double events = 0, bytes = 0;
        for (const Workload &w : shuffledKernels(rng)) {
            std::string path = tracePath(opt, w);
            double n1 = nativePass(w, opt, nullptr);
            Recorded rec = record(w, opt, path, nullptr);
            double n2 = nativePass(w, opt, nullptr);

            releaseFreeHeap();
            double t0 = nowSeconds();
            std::string profile;
            sigil::vg::ReplayReport report;
            {
                sigil::vg::MappedTraceFile map(path);
                out.count(map.ok());
                report = replaySession(w, map.view(), true, nullptr,
                                       &profile);
            }
            double rep_s = nowSeconds() - t0;
            native.add(w.name, n1);
            native.add(w.name, n2);
            replay.add(w.name, rep_s);
            recording.add(w.name, rec.seconds);
            ratio.add(w.name, 2 * (rec.seconds + rep_s) / (n1 + n2));
            out.count(lossless(report, rec.events));
            out.count(refs.check(w.name, opt.scale, profile));
            events += static_cast<double>(rec.events);
            bytes += static_cast<double>(rec.bytes);
        }
        bytes_total.push_back(bytes);
        events_total.push_back(events);
    }

    // Trace bytes and event counts are exact: every round must agree.
    for (std::size_t i = 0; i < bytes_total.size(); ++i)
        out.count(bytes_total[i] == bytes_total[0] &&
                  events_total[i] == events_total[0]);

    double n = native.sumOfMedians(), rec = recording.sumOfMedians(),
           rep = replay.sumOfMedians();
    out.values["slowdown_x"] = ratio.pairedRatio(native);
    out.values["footprint_mb"] = bytes_total[0] / 1e6;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "trace_pipeline: %zu rounds; record %.2fx native "
                  "(record_mev_per_s %.3f), replay %.2fx native "
                  "(replay_mev_per_s %.3f), trace_bytes_per_event %.4f",
                  bytes_total.size(), rec / n, events_total[0] / rec / 1e6,
                  rep / n, events_total[0] / rep / 1e6,
                  bytes_total[0] / events_total[0]);
    out.notes.push_back(line);
}

void
tracedRounds(const Options &opt, const References &refs, Outcome &out,
             Rng &rng, SetupSchedule &setups)
{
    SpanLog log;
    std::vector<double> native, rec_s, map_s, decode, sigil, write,
        pipeline, overhead;
    std::map<std::string, double> counts;
    while (setups.running() || pipeline.empty()) {
        if (setups.runIfDue([&] { return setUp(opt, rng); }))
            continue;
        std::size_t from = log.spans().size();
        double untraced = 0;
        counts.clear();
        for (const Workload &w : shuffledKernels(rng)) {
            std::string path = tracePath(opt, w);
            nativePass(w, opt, &log);
            Recorded rec = record(w, opt, path, &log);
            std::string profile;
            {
                std::unique_ptr<sigil::vg::MappedTraceFile> map;
                releaseFreeHeap();
                {
                    ScopedSpan span(&log, "vg.trace_map");
                    map = std::make_unique<sigil::vg::MappedTraceFile>(path);
                }
                out.count(map->ok());
                sigil::vg::ReplayReport d =
                    replaySession(w, map->view(), false, &log, nullptr);
                out.count(lossless(d, rec.events));
                sigil::vg::ReplayReport r =
                    replaySession(w, map->view(), true, &log, &profile);
                out.count(lossless(r, rec.events));
                out.count(refs.check(w.name, opt.scale, profile));
                counts["vg.trace_bytes"] += rec.bytes;
                counts["vg.trace_frames"] += r.blocksDelivered;
                counts["vg.events_delivered"] += r.eventsDelivered;
                counts["vg.events_skipped"] += r.eventsSkipped;
                counts["vg.resyncs"] += r.resyncs;
            }

            // The same pipeline untraced, for the tracing overhead.
            Recorded urec = record(w, opt, path, nullptr);
            releaseFreeHeap();
            double t0 = nowSeconds();
            {
                sigil::vg::MappedTraceFile map(path);
                replaySession(w, map.view(), true, nullptr, &profile);
            }
            untraced += urec.seconds + (nowSeconds() - t0);
            out.count(refs.check(w.name, opt.scale, profile));
        }
        auto total = [&](const char *name) {
            return log.totalSeconds(name, from);
        };
        double n = total("pass.native"), r = total("pass.record");
        double m = total("vg.trace_map"), d = total("replay.decode");
        double s = total("replay.sigil"), wr = total("profile.write");
        native.push_back(n);
        rec_s.push_back(r - n);
        map_s.push_back(m);
        decode.push_back(d);
        sigil.push_back(s - d);
        write.push_back(wr);
        pipeline.push_back(untraced);
        overhead.push_back((r + m + s + wr) / untraced - 1.0);
    }

    log.writeJsonLines(opt.workDir + "/spans-trace_pipeline.jsonl", "main");
    out.values["vg.native_s"] = median(native);
    out.values["vg.record_s"] = median(rec_s);
    out.values["vg.trace_map_s"] = median(map_s);
    out.values["vg.decode_s"] = median(decode);
    out.values["core.replay_sigil_s"] = median(sigil);
    out.values["core.profile_write_s"] = median(write);
    out.values["trace.overhead_frac"] = median(overhead);
    for (const auto &[name, v] : counts)
        out.values[name] = v;
    // End to end is the untraced pipeline (record, map, profiled
    // replay, write); the layers come from the traced passes, so the
    // residual is the tracing overhead plus run-to-run noise.
    layerSumCheck(out, "trace_pipeline", median(pipeline),
                  {{"vg.native_s", median(native)},
                   {"vg.record_s", median(rec_s)},
                   {"vg.trace_map_s", median(map_s)},
                   {"vg.decode_s", median(decode)},
                   {"core.replay_sigil_s", median(sigil)},
                   {"core.profile_write_s", median(write)}});
    out.notes.push_back("trace_pipeline traced: " +
                        std::to_string(pipeline.size()) + " rounds, " +
                        std::to_string(log.spans().size()) + " spans");
}

} // namespace

Outcome
runTracePipeline(const Options &opt, const References &refs)
{
    Outcome out;
    Rng rng(opt.seed);
    SetupSchedule setups(kSetups, opt);
    if (opt.trace)
        tracedRounds(opt, refs, out, rng, setups);
    else
        untracedRounds(opt, refs, out, rng, setups);
    out.values["setup_s"] = setups.median();
    out.notes.push_back(setups.note("trace_pipeline"));
    return out;
}

} // namespace sigilbench
