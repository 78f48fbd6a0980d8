/**
 * @file
 * Communication-classification tables and kernels.
 *
 * The paper's per-byte classification (local vs. input/output, unique
 * vs. non-unique, re-use runs) of SigilProfiler. An access is walked
 * as chunk-clamped shadow span runs, and every run goes to one of two
 * run kernels, commReadRun and commWriteRun.
 *
 * The bytes of one access almost always carry the same writer and
 * reader stamps, so commReadRun classifies once per run of units with
 * equal stamps (commClassifyBytes, with the run's summed width). The
 * re-use runs those units close are folded per group of adjacent units
 * with equal run state (commFinalizeRuns), so only plain stores — the
 * new run state, line totals, the reader stamp — stay per unit. The
 * per-unit kernels commReadUnit / commWriteUnit run only behind
 * SigilConfig::referenceShadowPath, as the differential oracle.
 */

#ifndef SIGIL_CORE_COMM_TABLES_HH
#define SIGIL_CORE_COMM_TABLES_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/comm_stats.hh"
#include "shadow/shadow_memory.hh"
#include "vg/types.hh"

namespace sigil::core {

/** Per-allocation traffic; slot 0 is the "other" bucket. */
struct ObjectTraffic
{
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t uniqueReadBytes = 0;
};

/** Ambient state of one memory access, as the read kernels see it. */
struct AccessStamp
{
    vg::ContextId ctx = vg::kInvalidContext;
    vg::CallNum call = 0;
    vg::Tick tick = 0;
    vg::ThreadId tid = 0;
    /** Open event-trace segment receiving the access (0 = none). */
    std::uint64_t segSeq = 0;
    /** ROI collection flag at the time of the access. */
    bool collecting = true;
};

/**
 * Collection environment of the read kernels. The fidelity flags are
 * *references*: a failure-injected chunk allocation can degrade
 * fidelity in the middle of a multi-chunk access. Chunk resolution happens only between span runs, so a flip
 * is seen from the next chunk run on and never inside one — which is
 * why a run kernel may read the flags once per run. granularityShift
 * is the shadow's unit shift.
 */
struct ClassifyEnv
{
    const bool &reuseEnabled;
    const bool &classifyEnabled;
    bool collectEvents = false;
    unsigned granularityShift = 0;
};

/** The communication tables of one profiling run. */
struct CommTables
{
    std::vector<CommAggregates> rows;

    /** (producer<<32|consumer) → edge index, no self edges. */
    std::unordered_map<std::uint64_t, std::size_t> edgeIndex;
    /** Edges in first-seen order. */
    std::vector<CommEdge> edges;
    /**
     * The key and index of the last edge edge() returned, in front of
     * edgeIndex. Whoever rebuilds edgeIndex calls resetEdgeCache().
     */
    std::uint64_t lastEdgeKey = kNoEdgeKey;
    std::size_t lastEdgeIndex = 0;

    /** (producerTid<<32|consumerTid) → thread-edge index. */
    std::unordered_map<std::uint64_t, std::size_t> threadEdgeIndex;
    std::vector<ThreadCommEdge> threadEdges;

    BoundsHistogram unitReuseBreakdown{std::vector<std::uint64_t>{0, 9}};
    BoundsHistogram lineReuseBreakdown{
        std::vector<std::uint64_t>{9, 99, 999, 9999}};

    std::vector<ObjectTraffic> objectStats;

    CommAggregates &
    row(vg::ContextId ctx)
    {
        std::size_t idx = static_cast<std::size_t>(ctx);
        if (idx >= rows.size())
            rows.resize(idx + 1);
        return rows[idx];
    }

    /** Grow-and-fetch the stats slot of allocation index (-1 = other). */
    ObjectTraffic &
    objectSlot(std::int32_t alloc_index)
    {
        std::size_t slot = static_cast<std::size_t>(alloc_index + 1);
        if (slot >= objectStats.size())
            objectStats.resize(slot + 1);
        return objectStats[slot];
    }

    static std::uint64_t
    edgeKey(vg::ContextId producer, vg::ContextId consumer)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(producer))
                << 32) |
               static_cast<std::uint32_t>(consumer);
    }

    /**
     * No edge has this key: its producer would be kInvalidContext, and
     * a never-written byte's producer is kUninitProducer instead.
     */
    static constexpr std::uint64_t kNoEdgeKey = ~std::uint64_t{0};

    /** The producer → consumer edge, appended on first use. */
    CommEdge &
    edge(vg::ContextId producer, vg::ContextId consumer)
    {
        const std::uint64_t key = edgeKey(producer, consumer);
        if (key != lastEdgeKey) {
            auto [it, inserted] = edgeIndex.try_emplace(key, edges.size());
            if (inserted)
                edges.push_back(CommEdge{producer, consumer, 0, 0});
            lastEdgeKey = key;
            lastEdgeIndex = it->second;
        }
        return edges[lastEdgeIndex];
    }

    void
    resetEdgeCache()
    {
        lastEdgeKey = kNoEdgeKey;
        lastEdgeIndex = 0;
    }

    static std::uint64_t
    threadEdgeKey(vg::ThreadId producer, vg::ThreadId consumer)
    {
        return (static_cast<std::uint64_t>(producer) << 32) | consumer;
    }
};

/**
 * Close the pending re-use run of a shadow object, folding its
 * lifetime into the last reader's statistics and its read count into
 * the program-wide breakdown. A pending run can only exist on a unit
 * whose chunk has a cold array, so a null cold is a no-op.
 */
inline void
commFinalizeRun(CommTables &t, const bool &reuse_enabled,
                const shadow::StampTable &st, shadow::ShadowHot &hot,
                shadow::ShadowCold *cold)
{
    if (!reuse_enabled || cold == nullptr)
        return;
    if (hot.reader == 0 || cold->runReads == 0)
        return;
    const shadow::ReaderStamp &rd = st.reader(hot.reader);
    if (rd.ctx == vg::kInvalidContext)
        return;
    std::uint64_t reuse = cold->runReads - 1;
    t.unitReuseBreakdown.add(reuse);
    if (reuse >= 1) {
        CommAggregates &r = t.row(rd.ctx);
        ++r.reusedUnits;
        r.reuseReads += reuse;
        std::uint64_t lifetime = cold->runLastRead - cold->runFirstRead;
        r.lifetimeSum += lifetime;
        r.lifetimeHist.add(lifetime);
    }
    cold->runReads = 0;
}

/**
 * Close the pending re-use runs of n adjacent units that all carry the
 * reader stamp `reader`: commFinalizeRun over each of them, with every
 * group of adjacent units whose (runReads, runFirstRead, runLastRead)
 * are equal folded in one step. The histogram and sum updates are
 * weighted by the group size, which is exact: they are commutative
 * counts and sums. The caller has checked that re-use is on and the
 * chunk has a cold array.
 */
inline void
commFinalizeRuns(CommTables &t, const shadow::StampTable &st,
                 shadow::StampId reader, shadow::ShadowCold *cold,
                 std::size_t n)
{
    if (reader == 0)
        return;
    const shadow::ReaderStamp &rd = st.reader(reader);
    if (rd.ctx == vg::kInvalidContext)
        return;
    std::size_t i = 0;
    while (i < n) {
        const shadow::ShadowCold &c = cold[i];
        std::size_t j = i + 1;
        while (j < n && cold[j].runReads == c.runReads &&
               cold[j].runFirstRead == c.runFirstRead &&
               cold[j].runLastRead == c.runLastRead)
            ++j;
        if (c.runReads != 0) {
            const std::uint64_t count = j - i;
            const std::uint64_t reuse = c.runReads - 1;
            t.unitReuseBreakdown.add(reuse, count);
            if (reuse >= 1) {
                CommAggregates &r = t.row(rd.ctx);
                r.reusedUnits += count;
                r.reuseReads += reuse * count;
                const std::uint64_t lifetime =
                    c.runLastRead - c.runFirstRead;
                r.lifetimeSum += lifetime * count;
                r.lifetimeHist.add(lifetime, count);
            }
            for (std::size_t k = i; k < j; ++k)
                cold[k].runReads = 0;
        }
        i = j;
    }
}

/**
 * Record one write into a unit's shadow state. writer_id is the
 * access's producer identity, interned once per access into the
 * owning shadow's stamp table.
 */
inline void
commWriteUnit(CommTables &t, const bool &reuse_enabled,
              const shadow::StampTable &st, shadow::ShadowHot &hot,
              shadow::ShadowCold *cold, shadow::StampId writer_id)
{
    if (reuse_enabled)
        commFinalizeRun(t, reuse_enabled, st, hot, cold);
    hot.writer = writer_id;
    hot.reader = 0;
}

/**
 * Classify w read bytes whose units all carry the hot stamps s: the
 * reader and producer row updates, the edge and thread-edge updates,
 * the segment transfer and the unique-byte count. This is the whole
 * stamp-level part of a read; it never touches a unit's own state, so
 * a run of units with equal stamps is classified by one call with the
 * run's summed width. seg_xfers (nullable) receives producer-segment
 * → unique-byte transfers; unique_bytes_this_access accumulates for
 * per-object attribution.
 */
inline void
commClassifyBytes(CommTables &t, const ClassifyEnv &env,
                  const shadow::StampTable &st, shadow::ShadowHot s,
                  std::uint64_t w, const AccessStamp &a,
                  std::unordered_map<std::uint64_t, std::uint64_t> *seg_xfers,
                  std::uint64_t &unique_bytes_this_access)
{
    const shadow::WriterStamp &wr = st.writer(s.writer);
    const bool ever_written = wr.ctx != vg::kInvalidContext;
    vg::ContextId producer = ever_written ? wr.ctx : kUninitProducer;
    bool unique = st.reader(s.reader).ctx != a.ctx;
    bool local = producer == a.ctx;

    if (unique)
        unique_bytes_this_access += w;
    if (local) {
        // row() may grow rows, so the reader row is re-fetched after
        // any call that can resize it rather than cached across them.
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueLocalBytes += w;
        else
            reader.nonuniqueLocalBytes += w;
    } else {
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueInputBytes += w;
        else
            reader.nonuniqueInputBytes += w;
        if (producer >= 0) {
            CommAggregates &prod = t.row(producer);
            if (unique)
                prod.uniqueOutputBytes += w;
            else
                prod.nonuniqueOutputBytes += w;
        }
        CommEdge &edge = t.edge(producer, a.ctx);
        if (unique)
            edge.uniqueBytes += w;
        else
            edge.nonuniqueBytes += w;
    }

    // Cross-thread communication: producer ran on another thread.
    // Orthogonal to the local/input axis — two threads executing the
    // same function still communicate through memory.
    if (ever_written && wr.thread != a.tid) {
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueInterThreadBytes += w;
        else
            reader.nonuniqueInterThreadBytes += w;
        std::uint64_t tkey = CommTables::threadEdgeKey(wr.thread, a.tid);
        auto [tit, tin] =
            t.threadEdgeIndex.try_emplace(tkey, t.threadEdges.size());
        if (tin)
            t.threadEdges.push_back(ThreadCommEdge{wr.thread, a.tid, 0, 0});
        ThreadCommEdge &tedge = t.threadEdges[tit->second];
        if (unique)
            tedge.uniqueBytes += w;
        else
            tedge.nonuniqueBytes += w;
    }

    if (env.collectEvents && unique && ever_written && a.segSeq != 0 &&
        wr.seq != a.segSeq) {
        (*seg_xfers)[wr.seq] += w;
    }
}

/**
 * Per-unit state update of a classified read (commReadUnit's second
 * half): continue or restart the unit's re-use run (reuse), count the
 * access (line mode), and record the reader. Runs after the unit's
 * bytes were classified against its old stamps.
 */
inline void
commReadUnitState(CommTables &t, const shadow::StampTable &st,
                  shadow::ShadowHot &s, shadow::ShadowCold *c,
                  vg::Tick tick, shadow::StampId reader_id, bool reuse,
                  bool line)
{
    if (reuse) {
        // Stamp interning is injective, so id equality is exactly the
        // old (reader ctx, reader call) pair comparison. Re-use mode
        // always resolves with want_cold, so c is non-null here.
        if (s.reader == reader_id) {
            ++c->runReads;
            c->runLastRead = tick;
        } else {
            commFinalizeRun(t, reuse, st, s, c);
            c->runReads = 1;
            c->runFirstRead = tick;
            c->runLastRead = tick;
        }
    }

    // Per-unit access totals only feed the line-granularity re-use
    // breakdown, so byte-mode reads skip the cold record entirely
    // unless they are tracking a re-use run.
    if (line)
        ++c->totalAccesses;
    s.reader = reader_id;
}

/**
 * Classify one read of w bytes against a unit's shadow state and
 * update that state: the per-unit oracle behind
 * SigilConfig::referenceShadowPath, against which commReadRun is
 * differentially tested. reader_id is the access's consumer identity
 * (a.call, a.ctx), interned once per access. cold may be null when the
 * access does not need the cold record (the caller materializes it
 * exactly when re-use or line mode will touch it).
 */
inline void
commReadUnit(CommTables &t, const ClassifyEnv &env,
             const shadow::StampTable &st, shadow::ShadowHot &s,
             shadow::ShadowCold *c, std::uint64_t w,
             const AccessStamp &a, shadow::StampId reader_id,
             std::unordered_map<std::uint64_t, std::uint64_t> *seg_xfers,
             std::uint64_t &unique_bytes_this_access)
{
    if (!a.collecting) {
        // Outside the ROI: maintain shadow state only. Clear any
        // pending run so pre-ROI reads never leak into ROI stats.
        if (c != nullptr)
            c->runReads = 0;
        s.reader = reader_id;
        return;
    }

    if (!env.classifyEnabled) {
        // Degradation level 2: raw byte totals continue, but per-class
        // aggregation stops. Reader identity is still maintained so a
        // later analysis of the shadow state remains coherent.
        s.reader = reader_id;
        return;
    }

    commClassifyBytes(t, env, st, s, w, a, seg_xfers,
                      unique_bytes_this_access);
    commReadUnitState(t, st, s, c, a.tick, reader_id, env.reuseEnabled,
                      env.granularityShift > 0);
}

/**
 * Read kernel: classify the part of the read
 * [lo, hi) that falls on one chunk-clamped span run. The run is split
 * into maximal stamp runs — consecutive units with equal (writer,
 * reader) stamps — and each stamp run is classified once with its
 * summed byte width. Its units share one reader stamp, so either all
 * of them continue their re-use runs or all of them close them (one
 * commFinalizeRuns call) and start new ones; the remaining per-unit
 * work is plain stores. Produces exactly the result of commReadUnit
 * over every unit of the run in order.
 */
inline void
commReadRun(CommTables &t, const ClassifyEnv &env,
            const shadow::StampTable &st,
            const shadow::ShadowMemory::Run &run, vg::Addr lo, vg::Addr hi,
            const AccessStamp &a, shadow::StampId reader_id,
            std::unordered_map<std::uint64_t, std::uint64_t> *seg_xfers,
            std::uint64_t &unique_bytes_this_access)
{
    shadow::ShadowHot *const hot = run.hot;
    shadow::ShadowCold *const cold = run.cold;
    const std::size_t n = run.count;
    if (!a.collecting) {
        // Outside the ROI: see commReadUnit.
        for (std::size_t i = 0; i < n; ++i) {
            if (cold != nullptr)
                cold[i].runReads = 0;
            hot[i].reader = reader_id;
        }
        return;
    }
    if (!env.classifyEnabled) {
        for (std::size_t i = 0; i < n; ++i)
            hot[i].reader = reader_id;
        return;
    }

    const unsigned shift = env.granularityShift;
    const bool reuse = env.reuseEnabled;
    std::size_t i = 0;
    while (i < n) {
        // The stamps are copied before the state loop below overwrites
        // the readers, so the split and the classification both see
        // the pre-read state.
        const shadow::ShadowHot s = hot[i];
        std::size_t j = i + 1;
        while (j < n && hot[j].writer == s.writer &&
               hot[j].reader == s.reader)
            ++j;
        // Bytes of [lo, hi) covered by units [first + i, first + j):
        // only the access's two end units can be partial.
        const vg::Addr run_lo = (run.firstUnit + i) << shift;
        const vg::Addr run_hi = (run.firstUnit + j) << shift;
        const std::uint64_t w =
            std::min(hi, run_hi) - std::max(lo, run_lo);
        commClassifyBytes(t, env, st, s, w, a, seg_xfers,
                          unique_bytes_this_access);
        // Re-use mode always resolves with want_cold, so cold is
        // non-null whenever reuse or line mode is on.
        if (reuse) {
            if (s.reader == reader_id) {
                for (std::size_t k = i; k < j; ++k) {
                    ++cold[k].runReads;
                    cold[k].runLastRead = a.tick;
                }
            } else {
                commFinalizeRuns(t, st, s.reader, cold + i, j - i);
                for (std::size_t k = i; k < j; ++k) {
                    cold[k].runReads = 1;
                    cold[k].runFirstRead = a.tick;
                    cold[k].runLastRead = a.tick;
                }
            }
        }
        if (shift > 0) {
            for (std::size_t k = i; k < j; ++k)
                ++cold[k].totalAccesses;
        }
        for (std::size_t k = i; k < j; ++k)
            hot[k].reader = reader_id;
        i = j;
    }
}

/**
 * Write kernel: close the pending re-use runs of one
 * chunk-clamped span run, one commFinalizeRuns call per run of units
 * with equal reader stamps, then stamp every unit with writer_id. Same
 * result as commWriteUnit over every unit of the run.
 */
inline void
commWriteRun(CommTables &t, const bool &reuse_enabled,
             const shadow::StampTable &st,
             const shadow::ShadowMemory::Run &run,
             shadow::StampId writer_id)
{
    if (reuse_enabled && run.cold != nullptr) {
        // Close pending runs before the overwrite clobbers their
        // reader identity; units with no recorded reader have nothing
        // pending.
        std::size_t i = 0;
        while (i < run.count) {
            const shadow::StampId reader = run.hot[i].reader;
            std::size_t j = i + 1;
            while (j < run.count && run.hot[j].reader == reader)
                ++j;
            commFinalizeRuns(t, st, reader, run.cold + i, j - i);
            i = j;
        }
    }
    // The stamp overwrite itself is a plain 8-byte word fill.
    std::fill(run.hot, run.hot + run.count,
              shadow::ShadowHot{writer_id, 0});
}

} // namespace sigil::core

#endif // SIGIL_CORE_COMM_TABLES_HH
