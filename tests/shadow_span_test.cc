/**
 * @file
 * Differential test of the span-oriented shadow hot path.
 *
 * Replays randomized traces — mixed access sizes, unaligned addresses,
 * byte and line granularity, multiple threads, ROI windows, with and
 * without a shadow-memory limit — through two SigilProfiler instances:
 * one on the span path and one on the retained per-unit reference path
 * (SigilConfig::referenceShadowPath). The serialized profiles
 * (aggregates, communication edges, thread edges, re-use breakdowns,
 * lifetime histograms, shadow stats) and event traces must be
 * bitwise identical.
 *
 * The mixed-stamp cases aim the same comparison at the run kernel's
 * stamp-run split: single multi-unit reads whose units carry several
 * distinct (writer, reader) stamp pairs, plus a chunk-crossing read
 * whose fidelity degrades between its two chunk runs. The mixed re-use
 * case aims it at the batched re-use finalization: one stamp run, or
 * one run of equal reader stamps under a write, whose units carry
 * different re-use run state.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

struct TraceParams
{
    std::uint64_t seed;
    unsigned granularityShift;
    std::size_t maxShadowChunks;
    bool collectReuse;
    bool collectEvents;
    bool roiOnly;
};

/** Drive one deterministic pseudo-random workload into the guest. */
void
driveTrace(vg::Guest &g, const TraceParams &p)
{
    Rng rng(p.seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    vg::ThreadId threads[3] = {0, g.spawnThread(), g.spawnThread()};

    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    bool in_roi = true;
    for (int i = 0; i < 6000; ++i) {
        // Addresses: mostly a hot 64KiB window (chunk re-touches and,
        // under a limit, evictions in byte mode), sometimes a cold
        // 16MiB window (chunk churn in both granularities).
        vg::Addr addr = vg::kHeapBase;
        addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                          : rng.nextBounded(1 << 16);
        // Sizes: small unaligned, medium, and chunk-crossing large.
        unsigned size;
        switch (rng.nextBounded(8)) {
        case 0:
            size = 1000 + static_cast<unsigned>(rng.nextBounded(9000));
            break;
        case 1:
        case 2:
            size = 64 + static_cast<unsigned>(rng.nextBounded(192));
            break;
        default:
            size = 1 + static_cast<unsigned>(rng.nextBounded(16));
            break;
        }

        switch (rng.nextBounded(16)) {
        case 0:
            if (g.callDepth() < 6)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.switchThread(threads[rng.nextBounded(3)]);
            if (g.callDepth() == 0)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 3:
            g.iop(1 + rng.nextBounded(100));
            break;
        case 4:
            if (p.collectEvents && rng.nextBounded(4) == 0)
                g.barrier();
            break;
        case 5:
            if (p.roiOnly && rng.nextBounded(4) == 0) {
                if (in_roi)
                    g.roiEnd();
                else
                    g.roiBegin();
                in_roi = !in_roi;
            }
            break;
        case 6:
        case 7:
        case 8:
        case 9:
            if (g.callDepth() > 0)
                g.write(addr, size);
            break;
        default:
            if (g.callDepth() > 0)
                g.read(addr, size);
            break;
        }
    }
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

/** Run the workload through one profiler; serialize its outputs. */
void
runOnce(const TraceParams &p, bool reference_path, std::string &profile,
        std::string &events)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    cfg.referenceShadowPath = reference_path;

    vg::Guest g("shadow_span_diff");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveTrace(g, p);

    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    events = eos.str();
}

class ShadowSpanDifferential
    : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(ShadowSpanDifferential, SpanPathMatchesPerUnitReference)
{
    const TraceParams &p = GetParam();
    std::string ref_profile, ref_events, span_profile, span_events;
    runOnce(p, true, ref_profile, ref_events);
    runOnce(p, false, span_profile, span_events);
    EXPECT_EQ(ref_profile, span_profile);
    EXPECT_EQ(ref_events, span_events);
    // Guard against the vacuous pass: the trace must have produced a
    // non-trivial profile.
    EXPECT_GT(ref_profile.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, ShadowSpanDifferential,
    ::testing::Values(
        // Byte granularity, unlimited shadow, full collection.
        TraceParams{101, 0, 0, true, true, false},
        // Byte granularity under a tight chunk limit (evictions).
        TraceParams{202, 0, 6, true, true, false},
        // Line granularity, unlimited.
        TraceParams{303, 6, 0, true, true, false},
        // Line granularity under a chunk limit.
        TraceParams{404, 6, 4, true, true, false},
        // Baseline mode: no re-use tracking, no events.
        TraceParams{505, 0, 0, false, false, false},
        // ROI-gated collection with re-use.
        TraceParams{606, 0, 0, true, false, true},
        // Line mode, no re-use (line totals still collected).
        TraceParams{707, 6, 0, false, false, false}),
    [](const ::testing::TestParamInfo<TraceParams> &info) {
        const TraceParams &p = info.param;
        std::string name = "seed" + std::to_string(p.seed) + "_g" +
                           std::to_string(p.granularityShift) + "_max" +
                           std::to_string(p.maxShadowChunks);
        if (p.collectReuse)
            name += "_reuse";
        if (p.collectEvents)
            name += "_events";
        if (p.roiOnly)
            name += "_roi";
        return name;
    });

struct MixedParams
{
    unsigned granularityShift;
    bool roiOnly;
    bool collectEvents;
};

/** Guest address of the chunk boundary two chunks above the heap base. */
vg::Addr
chunkBoundary(unsigned granularity_shift)
{
    const vg::Addr chunk_bytes =
        vg::Addr{shadow::ShadowMemory::kChunkUnits} << granularity_shift;
    return (vg::kHeapBase / chunk_bytes + 2) * chunk_bytes;
}

/**
 * Lay down a 32-unit block whose units carry many stamp pairs, then
 * read it whole. Unit layout (u = one shadow unit):
 *   [0,16)  producer, with [4,8) overwritten by patch_a and 2u bytes
 *           from 10u+1 by patch_b (in line mode: partial lines);
 *   [16,24) never written (kUninitProducer);
 *   [24,28) written by remote on another thread (a thread edge);
 *   [28,32) never written.
 * A first read of [2,6) by consumer leaves units that share a writer
 * but not a reader. The same call then re-reads (re-use runs
 * continue), a new call of consumer re-reads (runs finalize), and the
 * producer reads its own bytes back (local traffic).
 */
void
driveMixedBlock(vg::Guest &g, const MixedParams &p, vg::Addr base,
                vg::ThreadId remote_tid)
{
    const vg::Addr u = vg::Addr{1} << p.granularityShift;
    g.enter("producer");
    g.write(base, static_cast<unsigned>(16 * u));
    g.leave();
    g.enter("patch_a");
    g.write(base + 4 * u, static_cast<unsigned>(4 * u));
    g.leave();
    g.enter("patch_b");
    g.write(base + 10 * u + 1, static_cast<unsigned>(2 * u));
    g.leave();
    g.switchThread(remote_tid);
    g.enter("remote");
    g.write(base + 24 * u, static_cast<unsigned>(4 * u));
    g.leave();
    g.switchThread(0);

    g.enter("consumer");
    g.read(base + 2 * u, static_cast<unsigned>(4 * u));
    // Unaligned ends: the first and last units are partial.
    g.read(base + 3, static_cast<unsigned>(30 * u - 5));
    g.read(base, static_cast<unsigned>(32 * u));
    g.leave();

    // ROI off mid-stream: the read maintains shadow state only.
    if (p.roiOnly)
        g.roiEnd();
    g.enter("consumer");
    g.read(base + 1, static_cast<unsigned>(20 * u));
    g.leave();
    if (p.roiOnly)
        g.roiBegin();

    g.enter("consumer");
    g.read(base, static_cast<unsigned>(32 * u));
    g.enter("producer");
    g.read(base + 5, static_cast<unsigned>(12 * u));
    g.leave();
    g.read(base + u, static_cast<unsigned>(31 * u));
    g.leave();
    if (p.collectEvents)
        g.barrier();
}

/** One run of the mixed-stamp workload; serialized outputs. */
void
runMixed(const MixedParams &p, bool reference_path, std::string &profile,
         std::string &events)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    cfg.referenceShadowPath = reference_path;

    vg::Guest g("mixed_stamps");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    const vg::ThreadId remote = g.spawnThread();
    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    const vg::Addr u = vg::Addr{1} << p.granularityShift;
    // One block inside a chunk, one straddling a chunk boundary (two
    // span runs per read).
    driveMixedBlock(g, p, vg::kHeapBase + 64 * u, remote);
    driveMixedBlock(g, p, chunkBoundary(p.granularityShift) - 16 * u,
                    remote);
    g.leave();
    g.finish();

    core::SigilProfile sp = prof.takeProfile();
    // Guard against the vacuous pass: the block must have produced
    // cross-function edges and a cross-thread edge.
    EXPECT_GE(sp.edges.size(), 4u);
    EXPECT_FALSE(sp.threadEdges.empty());
    std::ostringstream pos;
    core::writeProfile(pos, sp);
    profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    events = eos.str();
}

class ShadowSpanMixedStamps : public ::testing::TestWithParam<MixedParams>
{};

TEST_P(ShadowSpanMixedStamps, RunKernelMatchesPerUnitReference)
{
    const MixedParams &p = GetParam();
    std::string ref_profile, ref_events;
    runMixed(p, true, ref_profile, ref_events);
    std::string profile, events;
    runMixed(p, false, profile, events);
    EXPECT_EQ(ref_profile, profile);
    EXPECT_EQ(ref_events, events);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, ShadowSpanMixedStamps,
    ::testing::Values(MixedParams{0, false, false},
                      MixedParams{0, true, false},
                      MixedParams{0, false, true},
                      MixedParams{0, true, true},
                      MixedParams{6, false, false},
                      MixedParams{6, true, true}),
    [](const ::testing::TestParamInfo<MixedParams> &info) {
        const MixedParams &p = info.param;
        std::string name = "g";
        name += std::to_string(p.granularityShift);
        if (p.roiOnly)
            name += "_roi";
        if (p.collectEvents)
            name += "_events";
        return name;
    });

/**
 * One stamp run whose units differ in re-use state, closed by a read
 * of a new call, then a write over a run of mixed readers. The
 * consumer's first call reads 40 units at separate ticks so that
 * adjacent groups of units agree on two of (runReads, runFirstRead,
 * runLastRead) and differ in the third:
 *   [0,4) and [4,8)     re-read once at different ticks (last differs);
 *   [8,12)              re-read twice (count differs);
 *   [32,36) and [36,40) first read at different ticks, re-read
 *                       together (first differs).
 * The second call's own re-read of [20,24) leaves mixed state under
 * its reader stamp too.
 * All 40 units still carry one (writer, reader) stamp pair, so the
 * second call's read classifies them as one stamp run and closes
 * their runs in one batched step. Inside that call a nested call
 * reads [8,16) and then [10,12) again, and a write over [0,40) then
 * closes three runs of reader stamps with mixed run state.
 */
void
runMixedReuse(unsigned granularity_shift, bool reference_path,
              std::string &profile, std::string &events)
{
    core::SigilConfig cfg;
    cfg.granularityShift = granularity_shift;
    cfg.collectEvents = true;
    cfg.referenceShadowPath = reference_path;
    vg::Guest g("mixed_reuse");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);

    const vg::Addr u = vg::Addr{1} << granularity_shift;
    const vg::Addr base = vg::kHeapBase + 64 * u;
    auto read = [&](unsigned first, unsigned count) {
        g.iop(7);
        g.read(base + first * u, static_cast<unsigned>(count * u));
    };
    g.enter("main");
    g.enter("producer");
    g.write(base, static_cast<unsigned>(40 * u));
    g.leave();

    g.enter("consumer");
    read(0, 32);
    read(0, 4);
    read(4, 4);
    read(8, 4);
    read(8, 4);
    read(32, 4);
    // A longer gap than the one between the re-reads of [0,4) and
    // [4,8), so a lifetime error on one group cannot cancel the other.
    g.iop(100);
    read(36, 4);
    read(32, 8);
    g.leave();

    g.enter("consumer");
    read(0, 40);
    g.enter("nested");
    read(8, 8);
    read(10, 2);
    g.leave();
    read(20, 4);
    g.enter("producer");
    g.write(base, static_cast<unsigned>(40 * u));
    g.leave();
    g.leave();
    g.leave();
    g.finish();

    core::SigilProfile sp = prof.takeProfile();
    // Guard against the vacuous pass: re-use runs with lifetimes were
    // closed.
    std::uint64_t lifetime_sum = 0;
    for (const core::SigilRow &row : sp.rows)
        lifetime_sum += row.agg.lifetimeSum;
    EXPECT_GT(lifetime_sum, 0u);
    std::ostringstream pos;
    core::writeProfile(pos, sp);
    profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    events = eos.str();
}

TEST(ShadowSpanMixedReuse, BatchedFinalizationMatchesReference)
{
    for (unsigned shift : {0u, 6u}) {
        std::string ref_profile, ref_events, run_profile, run_events;
        runMixedReuse(shift, true, ref_profile, ref_events);
        runMixedReuse(shift, false, run_profile, run_events);
        EXPECT_EQ(ref_profile, run_profile) << "granularity " << shift;
        EXPECT_EQ(ref_events, run_events) << "granularity " << shift;
    }
}

/** Silences the degradation warnings of the fidelity-flip test. */
class QuietLogs
{
  public:
    QuietLogs() : saved_(setLogSink(&swallow)) {}
    ~QuietLogs() { setLogSink(saved_); }

  private:
    static void
    swallow(LogLevel level, const std::string &msg)
    {
        if (level == LogLevel::Panic || level == LogLevel::Fatal)
            std::fprintf(stderr, "%s\n", msg.c_str());
    }
    LogSink saved_;
};

/**
 * Chunk-crossing reads under allocation-failure injection: the first
 * chunk run is classified before the second chunk's allocation fails
 * and degrades fidelity, so each read is classified at two fidelity
 * levels (re-use on, then off; classification on, then off).
 */
void
runFidelityFlip(bool reference_path, std::string &profile,
                std::string &events, int &level)
{
    core::SigilConfig cfg;
    cfg.collectEvents = true;
    cfg.referenceShadowPath = reference_path;
    vg::Guest g("fidelity_flip");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    bool fail = false;
    prof.shadowMemory().setAllocationFailureInjector(
        [&fail] { return fail; });

    const vg::Addr b = chunkBoundary(0);
    const vg::Addr chunk = shadow::ShadowMemory::kChunkUnits;
    g.enter("main");
    g.enter("producer");
    g.write(b - 64, 64);
    g.leave();
    g.enter("consumer");
    g.read(b - 64, 40);
    g.read(b - 48, 48);
    g.leave();
    g.enter("consumer");
    fail = true;
    // Resident chunk, then a fresh one whose allocation exhausts the
    // injector: re-use tracking drops between the two runs.
    g.read(b - 32, 64);
    // The fresh chunk is resident now, so this write allocates nothing.
    g.enter("producer");
    g.write(b + chunk - 16, 16);
    g.leave();
    // Same again one chunk up: classification drops mid-read.
    g.read(b + chunk - 24, 48);
    fail = false;
    g.read(b - 40, 40);
    g.leave();
    g.leave();
    g.finish();
    level = prof.degradationLevel();

    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    events = eos.str();
}

TEST(ShadowSpanMixedStamps, FidelityFlipBetweenChunkRunsMatchesReference)
{
    QuietLogs quiet;
    std::string ref_profile, ref_events, run_profile, run_events;
    int ref_level = 0, run_level = 0;
    runFidelityFlip(true, ref_profile, ref_events, ref_level);
    runFidelityFlip(false, run_profile, run_events, run_level);
    EXPECT_EQ(ref_level, 2);
    EXPECT_EQ(run_level, 2);
    EXPECT_EQ(ref_profile, run_profile);
    EXPECT_EQ(ref_events, run_events);
}

} // namespace
} // namespace sigil
