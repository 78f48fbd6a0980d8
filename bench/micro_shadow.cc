/**
 * @file
 * Microbenchmarks of the tool-stack hot paths (google-benchmark):
 * shadow-memory lookup, read classification, cache simulation, and
 * full event dispatch. These quantify the per-event costs behind the
 * Figure 4/5 slowdowns.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "cg/cg_tool.hh"
#include "core/comm_tables.hh"
#include "core/sigil_profiler.hh"
#include "shadow/reuse_distance.hh"
#include "shadow/shadow_memory.hh"
#include "support/rng.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

using namespace sigil;

namespace {

void
BM_ShadowLookupSequential(benchmark::State &state)
{
    shadow::ShadowMemory sm;
    std::uint64_t unit = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sm.lookup(unit));
        unit = (unit + 1) & 0xfffff;
    }
}
BENCHMARK(BM_ShadowLookupSequential);

void
BM_ShadowLookupRandom(benchmark::State &state)
{
    shadow::ShadowMemory sm;
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sm.lookup(rng.nextBounded(1 << 20)));
}
BENCHMARK(BM_ShadowLookupRandom);

void
BM_ShadowLookupWithFifoLimit(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.maxChunks = 16;
    shadow::ShadowMemory sm(cfg);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sm.lookup(rng.nextBounded(1 << 20)));
}
BENCHMARK(BM_ShadowLookupWithFifoLimit);

/**
 * Strided shadow walks: one access of `size` guest bytes per
 * iteration, advancing by `size` through a wrapping address window,
 * walking every covered unit — the shape of
 * SigilProfiler::memRead/memWrite. The PerUnit variant resolves the
 * chunk per unit (the retained reference path); the Span variant
 * resolves it per chunk-clamped run.
 *
 * Unlimited variants use a hot 16 KiB window whose shadow stays
 * cache-resident, so the walk overhead itself is measured rather than
 * DRAM latency on the shadow arrays. Chunk-limit variants sweep a
 * 4 MiB window so the limiter continuously allocates and evicts, which
 * is the cost that mode exists to bound.
 *
 * Args: {access bytes, granularity shift, max chunks (0 = no limit)}.
 */
std::uint64_t
strideWindow(std::size_t max_chunks)
{
    return max_chunks == 0 ? (std::uint64_t{1} << 14)
                           : (std::uint64_t{1} << 22);
}

void
BM_ShadowPerUnitStride(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(1));
    cfg.maxChunks = static_cast<std::size_t>(state.range(2));
    shadow::ShadowMemory sm(cfg);
    unsigned size = static_cast<unsigned>(state.range(0));
    const std::uint64_t window = strideWindow(cfg.maxChunks);
    const shadow::StampId ws =
        sm.internWriter(shadow::WriterStamp{0, 1, 0});
    vg::Addr addr = 0;
    for (auto _ : state) {
        std::uint64_t first = sm.unitOf(addr);
        std::uint64_t last = sm.lastUnitOf(addr, size);
        for (std::uint64_t u = first; u <= last; ++u)
            sm.lookup(u).hot.writer = ws;
        addr = (addr + size) & (window - 1);
    }
    benchmark::DoNotOptimize(sm.stats().chunksAllocated);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ShadowPerUnitStride)
    ->ArgsProduct({{1, 8, 64, 4096}, {0, 6}, {0, 16}});

void
BM_ShadowSpanStride(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(1));
    cfg.maxChunks = static_cast<std::size_t>(state.range(2));
    shadow::ShadowMemory sm(cfg);
    unsigned size = static_cast<unsigned>(state.range(0));
    const std::uint64_t window = strideWindow(cfg.maxChunks);
    const shadow::StampId ws =
        sm.internWriter(shadow::WriterStamp{0, 1, 0});
    vg::Addr addr = 0;
    for (auto _ : state) {
        std::uint64_t first = sm.unitOf(addr);
        std::uint64_t last = sm.lastUnitOf(addr, size);
        sm.span(first, last, false, [&](shadow::ShadowMemory::Run run) {
            std::fill(run.hot, run.hot + run.count,
                      shadow::ShadowHot{ws, 0});
        });
        addr = (addr + size) & (window - 1);
    }
    benchmark::DoNotOptimize(sm.stats().chunksAllocated);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ShadowSpanStride)
    ->ArgsProduct({{1, 8, 64, 4096}, {0, 6}, {0, 16}});

/**
 * Reader-stamp interning through the shadow, one intern per iteration.
 * Arg 0 repeats one stamp (the one-entry cache). Arg 1 alternates a
 * caller stamp with a callee stamp whose call number is new every
 * time, the pattern of a loop calling a short function that reads
 * (canneal): every callee intern adds a tuple. The shadow is rebuilt
 * every 2^16 interns to keep the table's size bounded.
 */
void
BM_InternReader(benchmark::State &state)
{
    const bool fresh_callees = state.range(0) != 0;
    constexpr std::uint64_t kReset = 1 << 16;
    auto sm = std::make_unique<shadow::ShadowMemory>();
    std::uint64_t n = 0;
    vg::CallNum next_call = 2;
    for (auto _ : state) {
        if (++n % kReset == 0) {
            sm = std::make_unique<shadow::ShadowMemory>();
            next_call = 2;
        }
        shadow::ReaderStamp s{1, 0};
        if (fresh_callees && (n & 1) != 0)
            s = shadow::ReaderStamp{next_call++, 1};
        benchmark::DoNotOptimize(sm->internReader(s));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InternReader)->Arg(0)->Arg(1);

/**
 * 8-byte reads alternating between two 16 KiB arrays 1 MiB apart,
 * walked in lockstep (a[i], b[i], a[i+1], ...), the pattern of a loop
 * over two input arrays (vips, facesim): consecutive accesses resolve
 * different chunks, so every access goes through the chunk directory.
 */
void
BM_ChunkAlternation(benchmark::State &state)
{
    constexpr std::uint64_t kArray = 1 << 14;
    constexpr std::uint64_t kApart = 1 << 20;
    constexpr unsigned kSize = 8;
    shadow::ShadowMemory sm;
    const shadow::StampId rs = sm.internReader(shadow::ReaderStamp{1, 0});
    std::uint64_t reads = 0;
    for (auto _ : state) {
        const vg::Addr addr = ((reads >> 1) * kSize) % kArray +
                              ((reads & 1) != 0 ? kApart : 0);
        sm.span(addr, addr + kSize - 1, true,
                [&](shadow::ShadowMemory::Run run) {
                    for (std::size_t i = 0; i < run.count; ++i)
                        run.hot[i].reader = rs;
                });
        ++reads;
    }
    benchmark::DoNotOptimize(sm.stats().chunksAllocated);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChunkAlternation);

void
BM_CacheSimAccess(benchmark::State &state)
{
    cg::CacheSim sim;
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.access(rng.nextBounded(1 << 22), 8));
}
BENCHMARK(BM_CacheSimAccess);

/**
 * Classification layer alone: 8-byte reads through the read kernels,
 * no guest and no dispatch. A 16 KiB window is stamped once in 8-byte
 * blocks by four writer contexts, with a 3-byte overwrite by a fifth
 * context in every seventh block so some reads cover several stamp
 * runs. Reads then walk the window in order; each pass is one call
 * of the next of four reader contexts, so every read closes its
 * units' re-use runs and starts new ones, and the stamp pattern the
 * reads see is the same on every pass.
 *
 * Arg 0: the run kernel (span runs + commReadRun), the engines' path.
 * Arg 1: the per-unit reference (lookup + commReadUnit per unit), the
 * referenceShadowPath oracle.
 */
void
BM_ClassifyRead(benchmark::State &state)
{
    const bool per_unit = state.range(0) != 0;
    constexpr std::uint64_t kWindow = 1 << 14;
    constexpr unsigned kSize = 8;
    shadow::ShadowMemory sm;
    core::CommTables tables;
    for (vg::Addr addr = 0; addr < kWindow; addr += kSize) {
        const std::uint64_t block = addr / kSize;
        const vg::ContextId ctx = static_cast<vg::ContextId>(block % 4);
        const shadow::StampId ws =
            sm.internWriter(shadow::WriterStamp{0, ctx, 0});
        sm.span(addr, addr + kSize - 1, false,
                [&](shadow::ShadowMemory::Run run) {
                    core::commWriteRun(tables, true, sm.stamps(), run, ws);
                });
        if (block % 7 == 0) {
            const shadow::StampId ow =
                sm.internWriter(shadow::WriterStamp{0, 4, 1});
            sm.span(addr + 2, addr + 4, false,
                    [&](shadow::ShadowMemory::Run run) {
                        core::commWriteRun(tables, true, sm.stamps(), run,
                                           ow);
                    });
        }
    }

    const bool reuse = true;
    const bool classify = true;
    core::ClassifyEnv env{reuse, classify, false, 0};
    std::uint64_t unique = 0;
    std::uint64_t reads = 0;
    for (auto _ : state) {
        const vg::Addr addr = (reads * kSize) & (kWindow - 1);
        const std::uint64_t pass = reads * kSize / kWindow;
        core::AccessStamp a;
        a.ctx = static_cast<vg::ContextId>(pass % 4);
        a.call = pass;
        a.tick = reads;
        const shadow::StampId rs =
            sm.internReader(shadow::ReaderStamp{a.call, a.ctx});
        if (per_unit) {
            for (vg::Addr u = addr; u < addr + kSize; ++u) {
                shadow::ShadowRef ref = sm.lookup(u, true);
                core::commReadUnit(tables, env, sm.stamps(), ref.hot,
                                   ref.cold, 1, a, rs, nullptr, unique);
            }
        } else {
            sm.span(addr, addr + kSize - 1, true,
                    [&](shadow::ShadowMemory::Run run) {
                        core::commReadRun(tables, env, sm.stamps(), run,
                                          addr, addr + kSize, a, rs,
                                          nullptr, unique);
                    });
        }
        ++reads;
    }
    benchmark::DoNotOptimize(unique);
    benchmark::DoNotOptimize(tables.edges.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifyRead)->Arg(0)->Arg(1);

/** Full stack: one traced read through cg + Sigil. */
void
BM_FullReadDispatch(benchmark::State &state)
{
    vg::Guest g("bench");
    cg::CgTool cg_tool;
    core::SigilProfiler sigil_tool;
    g.addTool(&cg_tool);
    g.addTool(&sigil_tool);
    g.enter("main");
    g.write(0x10000, 8);
    Rng rng(3);
    for (auto _ : state)
        g.read(0x10000 + rng.nextBounded(4096), 8);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullReadDispatch);

/** Baseline: the same read with no tools attached ("native"). */
void
BM_NativeReadDispatch(benchmark::State &state)
{
    vg::Guest g("bench");
    g.enter("main");
    Rng rng(3);
    for (auto _ : state)
        g.read(0x10000 + rng.nextBounded(4096), 8);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NativeReadDispatch);

void
BM_FunctionEnterLeave(benchmark::State &state)
{
    vg::Guest g("bench");
    cg::CgTool cg_tool;
    core::SigilProfiler sigil_tool;
    g.addTool(&cg_tool);
    g.addTool(&sigil_tool);
    g.enter("main");
    vg::FunctionId fn = g.fn("callee");
    for (auto _ : state) {
        g.enter(fn);
        g.leave();
    }
}
BENCHMARK(BM_FunctionEnterLeave);

void
BM_ReuseDistanceAccess(benchmark::State &state)
{
    shadow::ReuseDistanceTracker tracker;
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(tracker.access(rng.nextBounded(4096)));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseDistanceAccess);

/**
 * Fixed synthetic SGB3 trace replayed by the BM_TraceReplayThroughput
 * pair, recorded once: 20k random 8-byte write/read pairs over 4 KiB
 * plus a short call every 16 iterations.
 */
const std::string &
throughputTrace(std::uint64_t &events)
{
    static std::uint64_t recorded = 0;
    static const std::string trace = [] {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder recorder(os);
        g.addTool(&recorder);
        Rng rng(6);
        g.enter("main");
        for (int i = 0; i < 20000; ++i) {
            if ((i & 15) == 0) {
                g.enter("fn");
                g.iop(4);
                g.leave();
            }
            g.write(0x10000 + rng.nextBounded(4096), 8);
            g.read(0x10000 + rng.nextBounded(4096), 8);
        }
        g.leave();
        g.finish();
        recorded = recorder.eventsWritten();
        return os.str();
    }();
    events = recorded;
    return trace;
}

void
BM_TraceReplayThroughput(benchmark::State &state)
{
    std::uint64_t events = 0;
    const std::string &trace = throughputTrace(events);
    std::uint64_t peak = 0;
    for (auto _ : state) {
        std::istringstream in(trace, std::ios::binary);
        vg::Guest g2("bench");
        core::SigilProfiler prof;
        g2.addTool(&prof);
        benchmark::DoNotOptimize(vg::replayBinaryTrace(in, g2));
        peak = prof.shadowPeakBytes();
    }
    state.counters["shadow_peak_bytes"] = static_cast<double>(peak);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * events));
}
BENCHMARK(BM_TraceReplayThroughput);

/** Same replay on the retained per-unit reference shadow path. */
void
BM_TraceReplayThroughputReference(benchmark::State &state)
{
    std::uint64_t events = 0;
    const std::string &trace = throughputTrace(events);
    core::SigilConfig cfg;
    cfg.referenceShadowPath = true;
    for (auto _ : state) {
        std::istringstream in(trace, std::ios::binary);
        vg::Guest g2("bench");
        core::SigilProfiler prof(cfg);
        g2.addTool(&prof);
        benchmark::DoNotOptimize(vg::replayBinaryTrace(in, g2));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * events));
}
BENCHMARK(BM_TraceReplayThroughputReference);

/** Sequential byte stream through the cache sim (last-line filter). */
void
BM_CacheSimSequential(benchmark::State &state)
{
    cg::CacheSim sim;
    vg::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.access(addr, 8));
        addr = (addr + 8) & ((1 << 22) - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimSequential);

} // namespace

BENCHMARK_MAIN();
