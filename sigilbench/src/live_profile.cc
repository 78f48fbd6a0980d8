/**
 * @file
 * live_profile: the paper's Fig. 4/6 pipeline. Every PARSEC kernel
 * runs natively and under CgTool + SigilProfiler, passes interleaved
 * per kernel so host noise hits both sides of the slowdown alike.
 * The traced run adds tool-subset passes (no-op tool, CgTool alone,
 * SigilProfiler alone) whose differences give the per-layer times.
 */

#include <cstdio>
#include <memory>
#include <sstream>

#include "cg/cg_tool.hh"
#include "common.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "vg/guest.hh"

namespace sigilbench {
namespace {

using sigil::workloads::Workload;

/** Receives every event and does nothing: the cost of dispatch. */
class NoopTool : public sigil::vg::Tool
{};

enum class Mode { Native, Noop, Cg, Sigil, Full };

/** Span names of one pass mode. */
struct ModeNames
{
    const char *pass, *run, *finish, *write;
};

const ModeNames &
namesOf(Mode m)
{
    static const ModeNames names[] = {
        {"pass.native", "native.run", "native.finish", "native.write"},
        {"pass.noop", "noop.run", "noop.finish", "noop.write"},
        {"pass.cg", "cg.run", "cg.finish", "cg.write"},
        {"pass.sigil", "sigil.run", "sigil.finish", "sigil.write"},
        {"pass.full", "full.run", "full.finish", "full.write"},
    };
    return names[static_cast<int>(m)];
}

/** Everything one kernel pass yields. */
struct Pass
{
    double runFinishS = 0; ///< w.run + guest.finish
    double writeS = 0;     ///< takeProfile + writeProfile
    sigil::vg::GuestCounters counters;
    std::size_t contexts = 0;
    std::uint64_t shadowPeak = 0;
    sigil::shadow::ShadowStats shadow;
    std::uint64_t stampWriters = 0, stampReaders = 0, stampBytes = 0;
};

Pass
runPass(const Workload &w, Mode mode, const Options &opt,
        const References &refs, Outcome &out, SpanLog *log,
        std::uint64_t request)
{
    const ModeNames &nm = namesOf(mode);
    Pass p;
    sigil::vg::Guest guest(w.name);
    std::unique_ptr<sigil::cg::CgTool> cg;
    std::unique_ptr<sigil::core::SigilProfiler> sigil;
    NoopTool noop;
    if (mode == Mode::Noop)
        guest.addTool(&noop);
    if (mode == Mode::Cg || mode == Mode::Full) {
        cg = std::make_unique<sigil::cg::CgTool>();
        guest.addTool(cg.get());
    }
    if (mode == Mode::Sigil || mode == Mode::Full) {
        sigil = std::make_unique<sigil::core::SigilProfiler>();
        guest.addTool(sigil.get());
    }

    releaseFreeHeap();
    ScopedSpan pass_span(log, nm.pass, request);
    double t0 = nowSeconds();
    {
        ScopedSpan s(log, nm.run, request);
        w.run(guest, opt.scale);
    }
    {
        ScopedSpan s(log, nm.finish, request);
        guest.finish();
    }
    double t1 = nowSeconds();
    p.runFinishS = t1 - t0;
    p.counters = guest.counters();
    p.contexts = guest.contexts().size();
    if (!sigil)
        return p;

    std::string bytes;
    {
        ScopedSpan s(log, nm.write, request);
        std::ostringstream os;
        sigil::core::writeProfile(os, sigil->takeProfile());
        bytes = os.str();
    }
    p.writeS = nowSeconds() - t1;
    out.count(refs.check(w.name, opt.scale, bytes));
    p.shadowPeak = sigil->shadowPeakBytes();
    p.shadow = sigil->shadowStats();
    const sigil::shadow::StampTable &st = sigil->shadowMemory().stamps();
    p.stampWriters = st.writerCount();
    p.stampReaders = st.readerCount();
    p.stampBytes = st.bytes();
    return p;
}

constexpr std::size_t kSetups = 5;
constexpr int kWarmUpRounds = 3;

void
untracedRounds(const Options &opt, const References &refs, Outcome &out,
               Rng &rng, SetupSchedule &setups)
{
    // Per kernel: native, Sigil, native, so both sides of each ratio
    // see the same host state; medians over the rounds per kernel.
    KernelSamples native, sigil, ratio;
    std::vector<std::uint64_t> footprints;
    double instr = 0;
    while (setups.running() || footprints.empty()) {
        if (setups.runIfDue([&] {
                return nativeWarmUp(opt, rng, kWarmUpRounds);
            }))
            continue;
        std::uint64_t footprint = 0;
        instr = 0;
        for (const Workload &w : shuffledKernels(rng)) {
            Pass n1 = runPass(w, Mode::Native, opt, refs, out, nullptr, 0);
            Pass s = runPass(w, Mode::Full, opt, refs, out, nullptr, 0);
            Pass n2 = runPass(w, Mode::Native, opt, refs, out, nullptr, 0);
            native.add(w.name, n1.runFinishS);
            native.add(w.name, n2.runFinishS);
            sigil.add(w.name, s.runFinishS);
            ratio.add(w.name,
                      2 * s.runFinishS / (n1.runFinishS + n2.runFinishS));
            instr += static_cast<double>(s.counters.instructions());
            footprint += s.shadowPeak;
        }
        footprints.push_back(footprint);
    }

    // The shadow footprint is an exact count: every round must agree.
    for (std::uint64_t f : footprints)
        out.count(f == footprints.front());

    double sigil_s = sigil.sumOfMedians(), native_s = native.sumOfMedians();
    out.values["slowdown_x"] = ratio.pairedRatio(native);
    out.values["footprint_mb"] = static_cast<double>(footprints[0]) / 1e6;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "live_profile: %zu rounds of 13 kernels; "
                  "live_minstr_per_s %.3f, native %.4f s and Sigil %.4f s "
                  "per suite (sums of per-kernel medians)",
                  footprints.size(), instr / sigil_s / 1e6, native_s,
                  sigil_s);
    out.notes.push_back(line);
}

void
tracedRounds(const Options &opt, const References &refs, Outcome &out,
             Rng &rng, SetupSchedule &setups)
{
    SpanLog log;
    std::vector<double> native, dispatch, cg, sigil, finish, write, full,
        overhead;
    std::map<std::string, double> counts;
    std::uint64_t request = 0;
    while (setups.running() || full.empty()) {
        if (setups.runIfDue([&] {
                return nativeWarmUp(opt, rng, kWarmUpRounds);
            }))
            continue;
        std::size_t from = log.spans().size();
        double untraced_full = 0;
        counts.clear();
        for (const Workload &w : shuffledKernels(rng)) {
            for (Mode m : {Mode::Native, Mode::Noop, Mode::Cg, Mode::Sigil})
                runPass(w, m, opt, refs, out, &log, ++request);
            Pass f = runPass(w, Mode::Full, opt, refs, out, &log, ++request);
            Pass u = runPass(w, Mode::Full, opt, refs, out, nullptr, 0);
            untraced_full += u.runFinishS + u.writeS;

            counts["vg.reads"] += f.counters.reads;
            counts["vg.writes"] += f.counters.writes;
            counts["vg.calls"] += f.counters.calls;
            counts["vg.contexts"] += f.contexts;
            counts["shadow.chunks_allocated"] += f.shadow.chunksAllocated;
            counts["shadow.chunks_peak"] += f.shadow.chunksPeak;
            counts["shadow.cold_arrays"] += f.shadow.coldArraysLive;
            counts["shadow.bytes_peak"] += f.shadow.bytesPeak;
            counts["shadow.stamp_writers"] += f.stampWriters;
            counts["shadow.stamp_readers"] += f.stampReaders;
            counts["shadow.stamp_bytes"] += f.stampBytes;
        }
        auto total = [&](const char *name) {
            return log.totalSeconds(name, from);
        };
        // Run spans only: the full pass's Guest::finish() (CgTool's and
        // SigilProfiler's finish included) is core.finish_s, so no
        // layer counts a finish twice.
        double n = total("native.run"), noop = total("noop.run");
        native.push_back(n);
        dispatch.push_back(noop - n);
        cg.push_back(total("cg.run") - noop);
        sigil.push_back(total("sigil.run") - noop);
        finish.push_back(total("full.finish"));
        write.push_back(total("full.write"));
        double traced_full = total("pass.full");
        full.push_back(traced_full);
        overhead.push_back(traced_full / untraced_full - 1.0);
    }

    log.writeJsonLines(opt.workDir + "/spans-live_profile.jsonl", "main");
    out.values["vg.native_s"] = median(native);
    out.values["vg.dispatch_s"] = median(dispatch);
    out.values["cg.tool_s"] = median(cg);
    out.values["core.sigil_s"] = median(sigil);
    out.values["core.finish_s"] = median(finish);
    out.values["core.profile_write_s"] = median(write);
    out.values["trace.overhead_frac"] = median(overhead);
    for (const auto &[name, v] : counts)
        out.values[name] = v;
    layerSumCheck(out, "live_profile", median(full),
                  {{"vg.native_s", median(native)},
                   {"vg.dispatch_s", median(dispatch)},
                   {"cg.tool_s", median(cg)},
                   {"core.sigil_s", median(sigil)},
                   {"core.finish_s", median(finish)},
                   {"core.profile_write_s", median(write)}});
    out.notes.push_back("live_profile traced: " +
                        std::to_string(full.size()) + " rounds, " +
                        std::to_string(log.spans().size()) + " spans");
}

} // namespace

Outcome
runLiveProfile(const Options &opt, const References &refs)
{
    Outcome out;
    Rng rng(opt.seed);
    SetupSchedule setups(kSetups, opt);
    if (opt.trace)
        tracedRounds(opt, refs, out, rng, setups);
    else
        untracedRounds(opt, refs, out, rng, setups);
    out.values["setup_s"] = setups.median();
    out.notes.push_back(setups.note("live_profile"));
    return out;
}

} // namespace sigilbench
