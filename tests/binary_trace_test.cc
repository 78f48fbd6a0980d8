/**
 * @file
 * SGB3 trace round trips through the public replay entry points: ROI
 * marks survive recording and replay, replayTraceFile sniffs the
 * format, and garbage or truncated input is refused rather than
 * half-replayed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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
    bool barriers;
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
            if (p.barriers && rng.nextBounded(4) == 0)
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

/** Record one workload as an SGB3 trace. */
std::string
recordBinary(const TraceParams &p)
{
    vg::Guest g("trace_roundtrip");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&brec);
    driveTrace(g, p);
    return bos.str();
}

/** Replay a trace into a profiler; serialize the profile. */
std::string
replayToProfile(const std::string &trace)
{
    vg::Guest g("trace_roundtrip");
    core::SigilProfiler prof;
    g.addTool(&prof);
    std::istringstream is(trace, std::ios::binary);
    EXPECT_GT(vg::replayBinaryTrace(is, g), 1000u);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    return pos.str();
}

TEST(BinaryTrace, RoiRoundTrips)
{
    // ROI marks survive the round trip: an roiOnly profiler sees
    // identical windows live and from the trace.
    TraceParams p{2222, false, true};

    vg::Guest g("trace_roundtrip");
    core::SigilConfig scfg;
    scfg.roiOnly = true;
    core::SigilProfiler live(scfg);
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&live);
    g.addTool(&brec);
    driveTrace(g, p);

    std::ostringstream live_pos;
    core::writeProfile(live_pos, live.takeProfile());

    vg::Guest rg("trace_roundtrip");
    core::SigilProfiler prof(scfg);
    rg.addTool(&prof);
    std::istringstream is(bos.str(), std::ios::binary);
    vg::replayBinaryTrace(is, rg);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    EXPECT_EQ(live_pos.str(), pos.str());
}

TEST(BinaryTrace, FileSniffSelectsFormat)
{
    TraceParams p{4444, false, false};
    std::string binary = recordBinary(p);

    std::string path = ::testing::TempDir() + "/sniff_trace.sgb";
    std::ofstream(path, std::ios::binary) << binary;
    vg::Guest g("trace_roundtrip");
    core::SigilProfiler prof;
    g.addTool(&prof);
    vg::replayTraceFile(path, g);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    EXPECT_EQ(pos.str(), replayToProfile(binary));
    std::remove(path.c_str());

    // The magic check refuses a text trace.
    std::string text_path = ::testing::TempDir() + "/sniff_trace.txt";
    std::ofstream(text_path, std::ios::binary)
        << "sigil-trace\t1\np\ttrace_roundtrip\nend\n";
    vg::Guest tg("trace_roundtrip");
    EXPECT_EXIT(vg::replayTraceFile(text_path, tg),
                ::testing::ExitedWithCode(1), "bad magic");
    std::remove(text_path.c_str());
}

TEST(BinaryTraceDeath, RejectsGarbage)
{
    vg::Guest g("garbage");
    std::istringstream is(std::string("not a trace at all"),
                          std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(BinaryTraceDeath, RejectsTruncation)
{
    TraceParams p{5555, false, false};
    std::string binary = recordBinary(p);
    // A cut mid-block surfaces as a truncation or a corrupt record,
    // never as a silent partial replay.
    std::string truncated = binary.substr(0, binary.size() / 2);
    vg::Guest g("truncated");
    std::istringstream is(truncated, std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "binary trace");
}

} // namespace
} // namespace sigil
