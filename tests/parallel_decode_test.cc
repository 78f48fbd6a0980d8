/**
 * @file
 * Differential suite for the trace-ingestion path.
 *
 * Replays randomized workloads recorded as LZ-compressed SGB3 through
 * a SigilProfiler and requires the serialized profiles and event
 * traces to be bitwise identical to the recording run's own. Also covers checkpoint /
 * resume driven straight from a file (mmap'd input) on compressed
 * traces, mmap-vs-stream replay equivalence, rejection of the retired
 * trace formats, and the LZ block codec itself (round-trip,
 * incompressible fallback, bounds-checked rejection of malformed
 * streams).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/crc32c.hh"
#include "support/lz.hh"
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
driveTrace(vg::Guest &g, const TraceParams &p, int steps = 3000)
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
        // Mostly strided hot-loop accesses (the repetitive shape real
        // traces have, which SGB3's LZ stage exists for), with a
        // random-jump minority to keep the shadow layout honest.
        vg::Addr addr = vg::kHeapBase;
        if (rng.nextBounded(4) == 0)
            addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                              : rng.nextBounded(1 << 16);
        else
            addr += static_cast<vg::Addr>(i % 512) * 64;
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

/**
 * One workload run recorded as SGB3, with the recording run's own
 * serialized profile and event trace: the reference every replay must
 * reproduce byte for byte.
 */
struct Recording
{
    std::string trace;
    std::string profile;
    std::string events;
};

Recording
record(const TraceParams &p, std::size_t block_events = 256)
{
    vg::Guest g("pardec");
    core::SigilProfiler live(profilerConfig(p));
    std::ostringstream os(std::ios::binary);
    vg::BinaryTraceRecorder rec(os, vg::TraceFormat::SGB3, block_events);
    g.addTool(&live);
    g.addTool(&rec);
    driveTrace(g, p);
    Recording out;
    out.trace = os.str();
    std::ostringstream pos, eos;
    core::writeProfile(pos, live.takeProfile());
    core::writeEvents(eos, live.events());
    out.profile = pos.str();
    out.events = eos.str();
    return out;
}

/** True when at least one frame is stored LZ-compressed. */
bool
anyCompressed(const std::string &trace)
{
    for (const vg::FrameInfo &b : vg::scanFrames(trace)) {
        if (b.compressed)
            return true;
    }
    return false;
}


struct RunResult
{
    std::string profile;
    std::string events;
    vg::ReplayReport report;
};

/** Zero-copy replay of an in-memory trace; serialize all outputs. */
RunResult
replayOnce(const std::string &trace, const TraceParams &p)
{
    vg::Guest g("pardec");
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);

    vg::BinaryReplaySession session(std::string_view(trace), g);
    while (session.step()) {
    }
    RunResult out;
    out.report = session.finish();
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    out.events = eos.str();
    return out;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
}

class ParallelDecodeDifferential
    : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(ParallelDecodeDifferential, ThreadsFormatsDispatchMatchReference)
{
    const TraceParams &p = GetParam();
    Recording t = record(p);
    // The compressed framing must actually engage on this workload, or
    // the replays would only exercise stored-raw frames.
    ASSERT_TRUE(anyCompressed(t.trace));
    // Guard against the vacuous pass.
    ASSERT_GT(t.profile.size(), 100u);

    RunResult got = replayOnce(t.trace, p);
    EXPECT_TRUE(got.report.ok());
    EXPECT_TRUE(got.report.sawTrailer);
    EXPECT_EQ(got.report.eventsDelivered, got.report.totalEventsRecorded);
    EXPECT_EQ(t.profile, got.profile);
    EXPECT_EQ(t.events, got.events);
}

TEST_P(ParallelDecodeDifferential, FileCheckpointResumeOnCompressedTrace)
{
    const TraceParams &p = GetParam();
    // Small blocks so the checkpoint interval fires many times.
    Recording t = record(p, 64);
    ASSERT_TRUE(anyCompressed(t.trace));

    std::string trace_path =
        ::testing::TempDir() + "/pardec_trace_" + std::to_string(p.seed);
    writeFile(trace_path, t.trace);
    std::string ckpt_path =
        ::testing::TempDir() + "/pardec_ckpt_" + std::to_string(p.seed);
    std::remove(ckpt_path.c_str());
    std::remove((ckpt_path + ".prev").c_str());

    auto run = [&](core::CheckpointStats &st) {
        vg::Guest g("pardec");
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        core::CheckpointConfig cc;
        cc.path = ckpt_path;
        cc.intervalBlocks = 3;
        vg::ReplayReport r = core::replayFileWithCheckpoints(
            trace_path, g, prof, vg::ReplayOptions{}, cc, &st);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.sawTrailer);
        EXPECT_EQ(r.eventsDelivered, r.totalEventsRecorded);
        std::ostringstream pos, eos;
        core::writeProfile(pos, prof.takeProfile());
        core::writeEvents(eos, prof.events());
        return std::make_pair(pos.str(), eos.str());
    };

    // Fresh run writes checkpoints and matches the recording run.
    core::CheckpointStats st1;
    auto out1 = run(st1);
    EXPECT_FALSE(st1.resumed);
    EXPECT_GE(st1.checkpointsWritten, 2u);
    EXPECT_EQ(out1.first, t.profile);
    EXPECT_EQ(out1.second, t.events);

    // Second run resumes mid-stream from the mmap'd compressed trace
    // and is still bit-identical.
    core::CheckpointStats st2;
    auto out2 = run(st2);
    EXPECT_TRUE(st2.resumed);
    EXPECT_GT(st2.resumeBlocks, 0u);
    EXPECT_EQ(out2.first, t.profile);
    EXPECT_EQ(out2.second, t.events);

    std::remove(trace_path.c_str());
    std::remove(ckpt_path.c_str());
    std::remove((ckpt_path + ".prev").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelDecodeDifferential,
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

// ---------------------------------------------------------------------
// Mmap'd input: byte-for-byte the same replay as the stream path
// ---------------------------------------------------------------------

TEST(MappedTrace, MmapReplayMatchesStreamReplay)
{
    TraceParams p{42, 0, 0, true, true, false};
    Recording t = record(p);
    std::string path = ::testing::TempDir() + "/pardec_mmap";
    writeFile(path, t.trace);

    vg::MappedTraceFile mapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.errorDetail();
    ASSERT_EQ(mapped.view().size(), t.trace.size());
    ASSERT_EQ(std::string(mapped.view()), t.trace);

    RunResult ref;
    {
        vg::Guest g("pardec");
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        std::istringstream is(t.trace, std::ios::binary);
        ref.report = vg::replayBinaryTrace(is, g, vg::ReplayOptions{});
        std::ostringstream pos;
        core::writeProfile(pos, prof.takeProfile());
        ref.profile = pos.str();
    }
    vg::Guest g("pardec");
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);
    vg::BinaryReplaySession session(mapped.view(), g);
    while (session.step()) {
    }
    vg::ReplayReport r = session.finish();
    EXPECT_TRUE(r.sawTrailer);
    EXPECT_EQ(r.eventsDelivered, ref.report.eventsDelivered);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    EXPECT_EQ(pos.str(), ref.profile);
    EXPECT_EQ(pos.str(), t.profile);

    std::remove(path.c_str());
}

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

void
putU32le(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/**
 * Well-formed traces in the retired formats, each holding one
 * function record and an enter/leave pair: text, SGB1 (unframed
 * sections) and SGB2 (CRC-framed, SGB3's framing without the flags
 * byte and with 0xb2 sync bytes).
 */
std::vector<std::pair<std::string, std::string>>
retiredTraces()
{
    std::string text =
        "sigil-trace\t1\np\tpardec\nF\t0\tmain\nE\t0\nL\nend\n";

    std::string sgb1 = "SGB1";
    putVarint(sgb1, 1);
    putVarint(sgb1, 6);
    sgb1 += "pardec";
    sgb1 += '\x01'; // function record: id 0, "main"
    putVarint(sgb1, 0);
    putVarint(sgb1, 4);
    sgb1 += "main";
    sgb1 += '\x02'; // event block: enter fn 0, leave
    putVarint(sgb1, 2);
    sgb1 += "\x06";
    sgb1 += '\0';
    sgb1 += "\x07";
    sgb1 += '\0'; // end

    auto frame = [](std::uint8_t tag, std::uint64_t seq,
                    std::uint64_t first, std::uint64_t count,
                    const std::string &payload) {
        std::string f = "\xa7SB\xb2";
        f += static_cast<char>(tag);
        putVarint(f, seq);
        putVarint(f, first);
        putVarint(f, count);
        putVarint(f, payload.size());
        putU32le(f, crc32c(payload.data(), payload.size()));
        putU32le(f, crc32c(f.data(), f.size()));
        return f + payload;
    };
    std::string sgb2 = "SGB2";
    putVarint(sgb2, 1);
    putVarint(sgb2, 6);
    sgb2 += "pardec";
    std::string fns;
    putVarint(fns, 0);
    putVarint(fns, 4);
    fns += "main";
    sgb2 += frame(0x01, 0, 0, 0, fns);
    std::string evs = "\x06";
    evs += '\0';
    evs += "\x07";
    sgb2 += frame(0x02, 1, 0, 2, evs);
    sgb2 += frame(0x00, 2, 2, 0, {});

    return {{"text", text}, {"SGB1", sgb1}, {"SGB2", sgb2}};
}

TEST(MappedTrace, ReplayTraceFileSniffsEveryFormat)
{
    TraceParams p{43, 0, 0, false, false, false};
    Recording t = record(p);
    std::string path = ::testing::TempDir() + "/pardec_sniff";
    writeFile(path, t.trace);
    {
        vg::Guest g("pardec");
        std::uint64_t events = vg::replayTraceFile(path, g);
        EXPECT_GT(events, 1000u);
        EXPECT_EQ(events, vg::scanFrames(t.trace).back().firstEventSeq);
    }

    // Only SGB3 is readable. A retired format is a structured BadMagic
    // under strict replay, and salvage finds no frame to deliver from.
    for (const auto &[format, bytes] : retiredTraces()) {
        SCOPED_TRACE(format);
        writeFile(path, bytes);
        vg::Guest strict_guest("pardec");
        vg::ReplayReport strict =
            vg::replayTraceFile(path, strict_guest, vg::ReplayOptions{});
        ASSERT_TRUE(strict.error.has_value());
        EXPECT_EQ(strict.error->cause, vg::TraceErrorCause::BadMagic);
        EXPECT_EQ(strict.error->byteOffset, 0u);
        EXPECT_EQ(strict.eventsDelivered, 0u);

        vg::Guest salvage_guest("pardec");
        vg::ReplayOptions opts;
        opts.policy = vg::ReplayPolicy::Salvage;
        vg::ReplayReport salvage =
            vg::replayTraceFile(path, salvage_guest, opts);
        EXPECT_EQ(salvage.eventsDelivered, 0u);
        EXPECT_FALSE(salvage.sawTrailer);
        EXPECT_TRUE(salvage.sawCorruption());
        ASSERT_FALSE(salvage.errors.empty());
        EXPECT_EQ(salvage.errors[0].cause, vg::TraceErrorCause::BadMagic);
    }
    std::remove(path.c_str());
}

TEST(MappedTrace, MissingFileReportsError)
{
    vg::MappedTraceFile mapped("/nonexistent/sigil/trace/file");
    EXPECT_FALSE(mapped.ok());
    EXPECT_FALSE(mapped.errorDetail().empty());
}

// ---------------------------------------------------------------------
// LZ block codec
// ---------------------------------------------------------------------

std::string
lzRoundTrip(const std::string &src, bool *stored = nullptr)
{
    std::vector<char> comp(lzCompressBound(src.size()));
    std::size_t n = lzCompress(src.data(), src.size(), comp.data(),
                               comp.size());
    if (stored)
        *stored = n == 0;
    if (n == 0)
        return src; // caller stores raw, as the SGB3 writer does
    std::string out(src.size(), '\0');
    EXPECT_TRUE(lzDecompress(comp.data(), n, out.data(), out.size()));
    return out;
}

TEST(LzCodec, RoundTripsRepresentativePayloads)
{
    Rng rng(0x51);
    std::vector<std::string> inputs;
    inputs.emplace_back();                      // empty
    inputs.emplace_back("x");                   // single byte
    inputs.emplace_back(std::string(100000, '\0')); // long run
    {
        std::string rep;
        for (int i = 0; i < 5000; ++i)
            rep += "\x01\x82\x33\x07";          // event-record shaped
        inputs.push_back(rep);
    }
    {
        std::string rnd(4096, '\0');
        for (char &c : rnd)
            c = static_cast<char>(rng.nextBounded(256));
        inputs.push_back(rnd);                  // incompressible
    }
    for (const std::string &src : inputs) {
        SCOPED_TRACE("input size " + std::to_string(src.size()));
        EXPECT_EQ(lzRoundTrip(src), src);
    }

    // Compressible payloads must actually shrink under the SGB3
    // writer's "store only if smaller" cap...
    const std::string &runs = inputs[2];
    std::vector<char> comp(runs.size());
    std::size_t n = lzCompress(runs.data(), runs.size(), comp.data(),
                               runs.size() - 1);
    ASSERT_GT(n, 0u);
    EXPECT_LT(n, runs.size() / 10);
    // ...and random bytes must fall back to stored-raw.
    const std::string &rnd = inputs.back();
    EXPECT_EQ(lzCompress(rnd.data(), rnd.size(), comp.data(),
                         rnd.size() - 1),
              0u);
}

TEST(LzCodec, DecompressRejectsTruncatedStreams)
{
    std::string src;
    Rng rng(0x52);
    for (int i = 0; i < 2000; ++i)
        src.push_back(static_cast<char>(
            rng.nextBounded(4) ? 'a' + rng.nextBounded(4)
                               : rng.nextBounded(256)));
    std::vector<char> comp(lzCompressBound(src.size()));
    std::size_t n = lzCompress(src.data(), src.size(), comp.data(),
                               comp.size());
    ASSERT_GT(n, 0u);

    std::string out(src.size(), '\0');
    ASSERT_TRUE(lzDecompress(comp.data(), n, out.data(), out.size()));
    ASSERT_EQ(out, src);
    // Every proper prefix must be rejected: the stream either cuts a
    // sequence mid-way or ends before producing rawLen bytes.
    for (std::size_t cut = 0; cut < n; ++cut)
        EXPECT_FALSE(
            lzDecompress(comp.data(), cut, out.data(), out.size()))
            << "cut at " << cut;
    // Wrong rawLen in either direction is rejected too.
    std::string small(src.size() - 1, '\0');
    EXPECT_FALSE(
        lzDecompress(comp.data(), n, small.data(), small.size()));
    std::string big(src.size() + 1, '\0');
    EXPECT_FALSE(lzDecompress(comp.data(), n, big.data(), big.size()));
}

TEST(LzCodec, DecompressNeverCrashesOnGarbage)
{
    Rng rng(0x53);
    for (int i = 0; i < 256; ++i) {
        std::size_t len = 1 + rng.nextBounded(512);
        std::vector<char> junk(len);
        for (char &c : junk)
            c = static_cast<char>(rng.nextBounded(256));
        std::size_t raw = 1 + rng.nextBounded(2048);
        std::vector<char> out(raw);
        // Bounds-checked: may fail or "succeed" with garbage content,
        // but must never read or write out of range (ASan-verified in
        // the sanitizer test runs).
        (void)lzDecompress(junk.data(), junk.size(), out.data(), raw);
    }
}

} // namespace
} // namespace sigil
