/**
 * @file
 * Resource-governance suite: the memory-budget governor and the stall
 * watchdog.
 *
 * Governor: exact reconciliation of the ledger against ShadowStats,
 * bit-identity of governed runs whose budget covers the natural peak,
 * and the peak-bound contract of tight budgets (within budget plus at
 * most one chunk of slack, shedding LRU chunks before fidelity).
 * Watchdog: stall detection with structured diagnostics, idle workers
 * never flagged, re-arming after progress, and every stall warned,
 * counted and kept as the last report.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sigil_profiler.hh"
#include "core/profile_io.hh"
#include "shadow/shadow_memory.hh"
#include "support/logging.hh"
#include "support/mem_governor.hh"
#include "support/rng.hh"
#include "support/watchdog.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

/** Silence expected warnings (degradation, stall warns). */
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
 * Drive a workload whose footprint spans many shadow chunks, with
 * producer/consumer traffic so re-use and communication tracking
 * exercise the cold arrays too.
 */
void
driveWideWorkload(vg::Guest &g, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta"};
    g.enter("main");
    for (int i = 0; i < steps; ++i) {
        vg::Addr addr = vg::kHeapBase + rng.nextBounded(1u << 26);
        unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(128));
        switch (rng.nextBounded(8)) {
        case 0:
            if (g.callDepth() < 5)
                g.enter(fns[rng.nextBounded(4)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.iop(1 + rng.nextBounded(20));
            break;
        case 3:
        case 4:
        case 5:
            g.write(addr, size);
            break;
        default:
            g.read(addr, size);
            break;
        }
    }
    while (g.callDepth() > 0)
        g.leave();
    g.finish();
}

struct GovernedRun
{
    std::string profile;
    std::size_t shadowPeak = 0;
    std::size_t totalPeak = 0;
    std::uint64_t evictions = 0;
    int degradation = 0;
};

GovernedRun
runGoverned(std::uint64_t seed, int steps, std::size_t budget)
{
    QuietLogs quiet;
    vg::GuestConfig gc;
    gc.memoryBudgetBytes = budget;
    vg::Guest g("governed", gc);
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveWideWorkload(g, seed, steps);

    GovernedRun out;
    const MemoryGovernor *gov = g.governor();
    out.shadowPeak = gov->peakBytes(MemCategory::Shadow);
    out.totalPeak = gov->peakBytes();
    out.evictions = prof.shadowStats().evictions;
    out.degradation = prof.degradationLevel();
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    return out;
}

// ---------------------------------------------------------------------
// Memory governor
// ---------------------------------------------------------------------

TEST(MemoryGovernor, LedgerBasics)
{
    MemoryGovernor gov(1000);
    EXPECT_FALSE(gov.overBudget());
    gov.charge(MemCategory::Shadow, 600);
    gov.charge(MemCategory::ProfileCatalog, 300);
    EXPECT_EQ(gov.liveBytes(), 900u);
    EXPECT_FALSE(gov.overBudget());
    EXPECT_TRUE(gov.overBudget(200)); // headroom would exceed
    gov.release(MemCategory::Shadow, 600);
    EXPECT_EQ(gov.liveBytes(MemCategory::Shadow), 0u);
    EXPECT_EQ(gov.peakBytes(MemCategory::Shadow), 600u);
    EXPECT_EQ(gov.peakBytes(), 900u);
    gov.release(MemCategory::ProfileCatalog, 300);
    EXPECT_EQ(gov.liveBytes(), 0u);

    std::string text = gov.describe();
    EXPECT_NE(text.find("budget 1000 B"), std::string::npos);
    EXPECT_NE(text.find("shadow"), std::string::npos);

    // Track-only mode never reports over budget.
    MemoryGovernor track(0);
    track.charge(MemCategory::Shadow, std::size_t{1} << 40);
    EXPECT_FALSE(track.overBudget());
}

TEST(MemoryGovernor, LedgerReconcilesWithShadowStats)
{
    vg::Guest g("reconcile");
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveWideWorkload(g, 301, 20000);

    shadow::ShadowStats stats = prof.shadowStats();
    const MemoryGovernor *gov = g.governor();
    ASSERT_GT(stats.bytesLive, 0u);
    EXPECT_EQ(gov->liveBytes(MemCategory::Shadow), stats.bytesLive);
    EXPECT_EQ(gov->peakBytes(MemCategory::Shadow), stats.bytesPeak);
}

TEST(MemoryGovernor, AmpleBudgetIsBitIdenticalToUngoverned)
{
    GovernedRun free_run = runGoverned(302, 15000, 0);
    ASSERT_GT(free_run.profile.size(), 100u);
    EXPECT_EQ(free_run.evictions, 0u);
    ASSERT_GT(free_run.totalPeak, 0u);

    // Exactly the natural peak: never over budget, nothing evicted.
    GovernedRun capped = runGoverned(302, 15000, free_run.totalPeak);
    EXPECT_EQ(capped.evictions, 0u);
    EXPECT_EQ(capped.degradation, 0);
    EXPECT_EQ(capped.profile, free_run.profile);
    EXPECT_EQ(capped.totalPeak, free_run.totalPeak);
}

TEST(MemoryGovernor, TightBudgetBoundsPeakByOneChunk)
{
    GovernedRun free_run = runGoverned(303, 15000, 0);
    std::size_t one_chunk = shadow::ShadowMemory::chunkHotBytes() +
                            shadow::ShadowMemory::chunkColdBytes();
    std::size_t budget = free_run.totalPeak / 3;
    ASSERT_GT(budget, 2 * one_chunk)
        << "workload footprint too small for a meaningful budget";

    GovernedRun tight = runGoverned(303, 15000, budget);
    EXPECT_GT(tight.evictions, 0u); // pressure landed on the LRU first
    EXPECT_LE(tight.totalPeak, budget + one_chunk);
    ASSERT_GT(tight.profile.size(), 100u); // run completed, no OOM path
}

// ---------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------

TEST(WatchdogUnit, BusyWithoutProgressFires)
{
    QuietLogs quiet; // outlives the watchdog: stalls log warnings
    Watchdog dog(40);
    std::atomic<std::uint64_t> work{7};
    int wedged = dog.registerEntity("wedged-worker", [&] {
        return "items=" + std::to_string(work.load(std::memory_order_relaxed));
    });
    int parked = dog.registerEntity("parked-worker");
    dog.idle(parked); // blocking for input: never a stall
    dog.busy(wedged); // ... and never beats again

    for (int i = 0; i < 100 && dog.stallsDetected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(dog.stallsDetected(), 1u);
    std::string report = dog.lastReportMessage();
    EXPECT_NE(report.find("'wedged-worker' made no progress for 40 ms"),
              std::string::npos)
        << report;
    // Diagnostics cover every entity that provides one.
    EXPECT_NE(report.find("\n  wedged-worker: items=7"), std::string::npos)
        << report;
    EXPECT_EQ(report.find("'parked-worker'"), std::string::npos) << report;

    // A stall is reported once, not once per monitor tick, and the
    // parked worker is never flagged.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.stallsDetected(), 1u);

    // Progress re-arms the entity: busy again without beating, it is
    // reported a second time.
    work.store(8, std::memory_order_relaxed);
    dog.beat(wedged);
    for (int i = 0; i < 100 && dog.stallsDetected() == 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(dog.stallsDetected(), 2u);
    EXPECT_NE(dog.lastReportMessage().find("wedged-worker: items=8"),
              std::string::npos);

    // Once idle it is never flagged again.
    dog.idle(wedged);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.stallsDetected(), 2u);

    dog.unregisterEntity(wedged);
    dog.unregisterEntity(parked);
}

/** Warnings logged by the watchdog's monitor thread. */
std::mutex warnMu;
std::vector<std::string> warnings;

void
captureWarnings(LogLevel level, const std::string &msg)
{
    if (level != LogLevel::Warn)
        return;
    std::lock_guard<std::mutex> lock(warnMu);
    warnings.push_back(msg);
}

TEST(WatchdogUnit, DegradeActionWarnsWithoutHandler)
{
    {
        std::lock_guard<std::mutex> lock(warnMu);
        warnings.clear();
    }
    // Installed before the monitor thread starts and restored after it
    // is joined, so the sink swap never races a warning.
    LogSink saved = setLogSink(&captureWarnings);
    {
        Watchdog dog(30);
        int id = dog.registerEntity("soft-worker");
        dog.busy(id);
        for (int i = 0; i < 100 && dog.stallsDetected() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_EQ(dog.stallsDetected(), 1u);
        // Each stall is warned, counted and kept as the last report;
        // the run goes on.
        std::lock_guard<std::mutex> lock(warnMu);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings.front(), dog.lastReportMessage());
        EXPECT_NE(warnings.front().find("'soft-worker'"), std::string::npos);
        dog.unregisterEntity(id);
    }
    setLogSink(saved);
}

} // namespace
} // namespace sigil
