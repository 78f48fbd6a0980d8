/**
 * @file
 * Differential suite for the address-sharded parallel analysis engine.
 *
 * Replays the same randomized workloads as event_batch_test through a
 * SigilProfiler under shard counts {1, 2, 4, 8}, in per-event and
 * asynchronous dispatch, and requires the serialized profiles and event
 * traces to be bitwise identical to the serial reference. Also covers:
 * merge order-independence (shuffled fold orders), backpressure with
 * tiny shard queues, mid-run sync visibility, checkpoint/resume under
 * sharding including cross-mode resume (the v3 profiler body is
 * engine-independent: a sharded snapshot restores into a serial
 * replay and vice versa, for any shard count), and
 * rejection of invalid shard counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

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

core::SigilConfig
profilerConfig(const TraceParams &p)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    return cfg;
}

/** Drive one deterministic pseudo-random workload into the guest. */
void
driveTrace(vg::Guest &g, const TraceParams &p, int steps = 6000)
{
    Rng rng(p.seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    vg::ThreadId threads[3] = {0, g.spawnThread(), g.spawnThread()};

    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    bool in_roi = true;
    for (int i = 0; i < steps; ++i) {
        vg::Addr addr = vg::kHeapBase;
        addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                          : rng.nextBounded(1 << 16);
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
        if (g.callDepth() > 0 && rng.nextBounded(32) == 0)
            g.branch(rng.nextBounded(2) == 0);
    }
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

struct RunResult
{
    std::string profile;
    std::string events;
    bool sharded = false;
};

struct RunOptions
{
    unsigned shardCount = 1;
    std::size_t queueCapacity = std::size_t{1} << 15;
    bool async = false;
    std::vector<unsigned> foldOrder;
};

/** Run the workload once; serialize profile + event trace. */
RunResult
runOnce(const TraceParams &p, const RunOptions &o)
{
    vg::GuestConfig gc;
    gc.shardCount = o.shardCount;
    gc.shardQueueCapacity = o.queueCapacity;
    gc.asyncTools = o.async;
    vg::Guest g("sharded_diff", gc);
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);
    if (!o.foldOrder.empty())
        prof.setFoldOrderForTesting(o.foldOrder);
    driveTrace(g, p);

    RunResult out;
    out.sharded = prof.sharded();
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    out.events = eos.str();
    return out;
}

class ShardedDifferential : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(ShardedDifferential, ShardCountsMatchSerialReference)
{
    const TraceParams &p = GetParam();
    RunResult ref = runOnce(p, RunOptions{});
    ASSERT_FALSE(ref.sharded);
    // Guard against the vacuous pass.
    ASSERT_GT(ref.profile.size(), 100u);

    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        for (bool async : {false, true}) {
            RunOptions o;
            o.shardCount = shards;
            o.async = async;
            RunResult got = runOnce(p, o);
            EXPECT_EQ(got.sharded, shards > 1)
                << "shards=" << shards << " async=" << async;
            EXPECT_EQ(ref.profile, got.profile)
                << "shards=" << shards << " async=" << async;
            EXPECT_EQ(ref.events, got.events)
                << "shards=" << shards << " async=" << async;
        }
    }
}

TEST_P(ShardedDifferential, FoldOrderDoesNotMatter)
{
    // The fold sorts shard edges by global first-occurrence epoch, so
    // the order shards are visited in must be unobservable.
    const TraceParams &p = GetParam();
    RunOptions fwd;
    fwd.shardCount = 4;
    fwd.foldOrder = {0, 1, 2, 3};
    RunOptions rev;
    rev.shardCount = 4;
    rev.foldOrder = {3, 2, 1, 0};
    RunOptions rot;
    rot.shardCount = 4;
    rot.foldOrder = {2, 3, 0, 1};

    RunResult a = runOnce(p, fwd);
    RunResult b = runOnce(p, rev);
    RunResult c = runOnce(p, rot);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.profile, c.profile);
    EXPECT_EQ(a.events, c.events);
}

TEST_P(ShardedDifferential, TinyQueuesBackpressureIsLossless)
{
    // A deliberately undersized queue forces constant producer-side
    // backpressure; the result must not change, only the speed.
    const TraceParams &p = GetParam();
    RunResult ref = runOnce(p, RunOptions{});
    RunOptions o;
    o.shardCount = 2;
    o.queueCapacity = 16;
    RunResult got = runOnce(p, o);
    EXPECT_EQ(ref.profile, got.profile);
    EXPECT_EQ(ref.events, got.events);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShardedDifferential,
    ::testing::Values(TraceParams{101, 0, 0, true, true, false},
                      TraceParams{202, 0, 6, true, true, false},
                      TraceParams{303, 6, 0, true, true, false},
                      TraceParams{404, 6, 4, true, true, false},
                      TraceParams{505, 0, 0, false, false, false},
                      TraceParams{606, 0, 0, true, false, true},
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

TEST(ShardedReplay, SyncMakesStateCurrentMidRun)
{
    vg::GuestConfig gc;
    gc.shardCount = 4;
    vg::Guest g("sharded_sync", gc);
    core::SigilProfiler prof;
    g.addTool(&prof);
    ASSERT_TRUE(prof.sharded());

    g.enter("main");
    vg::Addr buf = g.alloc(1 << 20, "buf");
    for (int i = 0; i < 1000; ++i) {
        vg::Addr a = buf + static_cast<vg::Addr>(i) * 1021;
        g.write(a, 8);
        g.read(a, 8);
    }
    g.sync();
    vg::ContextId main_ctx = g.currentContext();
    EXPECT_EQ(prof.aggregates(main_ctx).readBytes, 8000u);
    EXPECT_EQ(prof.aggregates(main_ctx).uniqueLocalBytes, 8000u);
    // More work after the sync still lands.
    g.read(buf, 64);
    g.leave();
    g.finish();
    EXPECT_EQ(prof.aggregates(main_ctx).readBytes, 8064u);
}

TEST(ShardedReplay, ShardedStatsMatchSerialShadowStats)
{
    // The planner is the stats authority under sharding: allocation
    // counts, evictions, and the peak (peak-of-sum, not sum-of-peaks)
    // must equal the serial shadow's.
    TraceParams p{404, 6, 4, true, true, false};
    auto statsOf = [&](unsigned shards) {
        vg::GuestConfig gc;
        gc.shardCount = shards;
        vg::Guest g("sharded_stats", gc);
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        driveTrace(g, p);
        return std::make_pair(prof.shadowStats(),
                              prof.shadowPeakBytes());
    };
    auto [serial, serial_peak] = statsOf(1);
    auto [sharded, sharded_peak] = statsOf(4);
    EXPECT_EQ(serial.chunksAllocated, sharded.chunksAllocated);
    EXPECT_EQ(serial.chunksLive, sharded.chunksLive);
    EXPECT_EQ(serial.chunksPeak, sharded.chunksPeak);
    EXPECT_EQ(serial.evictions, sharded.evictions);
    EXPECT_EQ(serial_peak, sharded_peak);
    EXPECT_GT(sharded.evictions, 0u);
}

// ---------------------------------------------------------------------
// Checkpoint / resume under sharding
// ---------------------------------------------------------------------

/** Record the workload as an SGB3 trace. */
std::string
recordTrace(const TraceParams &p, int steps = 1500)
{
    vg::Guest g("sharded_ckpt");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder rec(bos, vg::TraceFormat::SGB3, 64);
    g.addTool(&rec);
    driveTrace(g, p, steps);
    return bos.str();
}

/** Replay uninterrupted into a fresh profiler; serialize results. */
std::pair<std::string, std::string>
replayPlain(const std::string &trace, const TraceParams &p)
{
    vg::Guest g("sharded_ckpt");
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);
    std::istringstream is(trace, std::ios::binary);
    vg::ReplayReport r = vg::replayBinaryTrace(is, g, vg::ReplayOptions{});
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.sawTrailer);
    std::ostringstream pos, eos;
    core::writeProfile(pos, prof.takeProfile());
    core::writeEvents(eos, prof.events());
    return {pos.str(), eos.str()};
}

class ShardedCheckpoint : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(ShardedCheckpoint, ResumeIsBitIdenticalAcrossEngines)
{
    const TraceParams &p = GetParam();
    std::string trace = recordTrace(p);
    auto ref = replayPlain(trace, p);

    std::string path = ::testing::TempDir() + "/sharded_ckpt_" +
                       std::to_string(p.seed);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    auto run = [&](unsigned shards, core::CheckpointStats &st) {
        vg::GuestConfig gc;
        gc.shardCount = shards;
        vg::Guest g("sharded_ckpt", gc);
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        std::istringstream is(trace, std::ios::binary);
        core::CheckpointConfig cc;
        cc.path = path;
        cc.intervalBlocks = 3;
        vg::ReplayReport r = core::replayWithCheckpoints(
            is, g, prof, vg::ReplayOptions{}, cc, &st);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.sawTrailer);
        std::ostringstream pos, eos;
        core::writeProfile(pos, prof.takeProfile());
        core::writeEvents(eos, prof.events());
        return std::make_pair(pos.str(), eos.str());
    };

    // Fresh sharded run writes checkpoints; output identical.
    core::CheckpointStats st1;
    auto out1 = run(4, st1);
    EXPECT_FALSE(st1.resumed);
    EXPECT_GE(st1.checkpointsWritten, 2u);
    EXPECT_EQ(out1.first, ref.first);
    EXPECT_EQ(out1.second, ref.second);

    // A serial replay resumes from the sharded snapshot.
    core::CheckpointStats st2;
    auto out2 = run(1, st2);
    EXPECT_TRUE(st2.resumed);
    EXPECT_GT(st2.resumeBlocks, 0u);
    EXPECT_EQ(out2.first, ref.first);
    EXPECT_EQ(out2.second, ref.second);

    // A sharded replay resumes from the serial snapshot — and a
    // differently-sharded one from the re-saved sharded snapshot.
    core::CheckpointStats st3;
    auto out3 = run(8, st3);
    EXPECT_TRUE(st3.resumed);
    EXPECT_EQ(out3.first, ref.first);
    EXPECT_EQ(out3.second, ref.second);

    core::CheckpointStats st4;
    auto out4 = run(2, st4);
    EXPECT_TRUE(st4.resumed);
    EXPECT_EQ(out4.first, ref.first);
    EXPECT_EQ(out4.second, ref.second);

    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShardedCheckpoint,
    ::testing::Values(TraceParams{111, 0, 0, true, true, false},
                      TraceParams{222, 0, 6, true, true, false},
                      TraceParams{333, 6, 4, true, true, false},
                      TraceParams{444, 0, 0, false, false, false}),
    [](const ::testing::TestParamInfo<TraceParams> &info) {
        const TraceParams &p = info.param;
        std::string name = "seed" + std::to_string(p.seed) + "_g" +
                           std::to_string(p.granularityShift) + "_max" +
                           std::to_string(p.maxShadowChunks);
        if (p.collectEvents)
            name += "_events";
        return name;
    });

TEST(ShardedReplayDeath, RejectsInvalidShardCounts)
{
    EXPECT_EXIT(
        {
            vg::GuestConfig gc;
            gc.shardCount = 3;
            vg::Guest g("bad_shards", gc);
        },
        ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(
        {
            vg::GuestConfig gc;
            gc.shardCount = 0;
            vg::Guest g("bad_shards", gc);
        },
        ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(
        {
            vg::GuestConfig gc;
            gc.shardCount = 128;
            vg::Guest g("bad_shards", gc);
        },
        ::testing::ExitedWithCode(1), "power of two");
}

} // namespace
} // namespace sigil
