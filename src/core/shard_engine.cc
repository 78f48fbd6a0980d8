#include "shard_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/sigil_profiler.hh"
#include "support/logging.hh"
#include "support/watchdog.hh"

namespace sigil::core {

namespace {

/** Records a worker pops per queue visit (amortizes cursor traffic). */
constexpr std::size_t kPopBatch = 256;

} // namespace

/** One shard: its queue, private shadow + tables, and the worker. */
struct ShardEngine::Shard
{
    Shard(std::size_t queue_capacity, unsigned granularity_shift)
        : queue(queue_capacity),
          shadow(shadow::ShadowMemory::Config{granularity_shift, 0})
    {}

    vg::ShardQueue queue;
    /** Unbounded: the sequencer's planner owns eviction decisions. */
    shadow::ShadowMemory shadow;
    CommTables tables;

    /** Sequencer-local count of records pushed to this shard. */
    std::uint64_t pushed = 0;
    /** Worker's count of records fully processed. */
    alignas(64) std::atomic<std::uint64_t> processed{0};

    /** Watchdog entity of this shard's worker (-1 when unmonitored). */
    int dogId = -1;

    std::thread worker;
};

ShardEngine::ShardEngine(const SigilConfig &config, unsigned shard_count,
                         std::size_t queue_capacity,
                         std::shared_ptr<sigil::Watchdog> watchdog,
                         std::shared_ptr<sigil::MemoryGovernor> governor)
    : config_(config), reuseEnabled_(config.collectReuse),
      planner_(config.maxShadowChunks), watchdog_(std::move(watchdog)),
      governor_(std::move(governor))
{
    if (shard_count < 2 ||
        (shard_count & (shard_count - 1)) != 0) {
        panic("ShardEngine: shard count %u is not a power of two >= 2",
              shard_count);
    }
    planner_.setGovernor(governor_.get());
    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i) {
        auto shard = std::make_unique<Shard>(queue_capacity,
                                             config.granularityShift);
        Shard *s = shard.get();
        s->shadow.setEvictionHandler(
            [this, s](std::uint64_t, shadow::ShadowRef obj) {
                commFinalizeRun(s->tables, reuseEnabled_,
                                s->shadow.stamps(), obj.hot, obj.cold);
            },
            shadow::SweepFilter::PendingRuns);
        if (watchdog_ != nullptr) {
            char name[32];
            std::snprintf(name, sizeof(name), "shard-worker-%u", i);
            s->dogId = watchdog_->registerEntity(
                name, sigil::Watchdog::StallAction::Fail, [s] {
                    char buf[48];
                    std::snprintf(
                        buf, sizeof(buf), "records processed=%llu",
                        static_cast<unsigned long long>(
                            s->processed.load(
                                std::memory_order_relaxed)));
                    return std::string(buf);
                });
        }
        shards_.push_back(std::move(shard));
    }
    if (governor_ != nullptr) {
        // Fixed footprint: the SPSC rings exist for the engine's whole
        // lifetime, so one charge up front and one release at teardown.
        // capacity() is the ring's actual (power-of-two) slot count.
        queueBytesCharged_ = shard_count *
                             shards_[0]->queue.capacity() *
                             sizeof(vg::ShardRecord);
        governor_->charge(sigil::MemCategory::ShardQueues,
                          queueBytesCharged_);
    }
    for (auto &shard : shards_) {
        Shard *s = shard.get();
        s->worker = std::thread([this, s] { workerLoop(*s); });
    }
}

ShardEngine::~ShardEngine()
{
    for (auto &shard : shards_)
        shard->queue.stop();
    for (auto &shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
        if (watchdog_ != nullptr && shard->dogId >= 0)
            watchdog_->unregisterEntity(shard->dogId);
    }
    if (governor_ != nullptr) {
        governor_->release(sigil::MemCategory::ShardQueues,
                           queueBytesCharged_);
        planner_.setGovernor(nullptr);
    }
}

CommTables &
ShardEngine::tables(unsigned shard)
{
    return shards_[shard]->tables;
}

shadow::ShadowMemory &
ShardEngine::shadowOf(unsigned shard)
{
    return shards_[shard]->shadow;
}

void
ShardEngine::routeAccess(bool is_write, vg::Addr addr, unsigned size,
                         AccessStamp stamp)
{
    const unsigned shift = config_.granularityShift;
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last =
        (addr + (size ? size - 1 : 0)) >> shift;

    vg::ShardRecord record;
    record.kind = is_write ? vg::ShardRecord::kWrite
                           : vg::ShardRecord::kRead;
    record.tick = stamp.tick;
    record.segSeq = stamp.segSeq;
    record.call = stamp.call;
    record.ctx = stamp.ctx;
    record.tid = stamp.tid;
    record.allocIdx = stamp.allocIdx;
    record.collecting = stamp.collecting;

    // Mirror the serial engine's stamp interning (once per access,
    // before the shadow walk) so the sequencer's table — the one the
    // byte accounting and checkpoints use — grows in exactly the
    // serial order. Workers re-intern into their shard-local tables.
    if (is_write) {
        planner_.internWriter(shadow::WriterStamp{
            stamp.segSeq, stamp.ctx, stamp.tid});
    } else {
        planner_.internReader(shadow::ReaderStamp{
            reuseEnabled_ ? stamp.call : 0, stamp.ctx});
    }
    // Serial readAccess resolves want_cold once per access; the worker
    // computes the identical value from the record (classifyEnabled_
    // is fixed true in sharded mode).
    const bool want_cold = !is_write && stamp.collecting &&
                           classifyEnabled_ &&
                           (reuseEnabled_ ||
                            config_.granularityShift > 0);

    std::uint64_t u = first;
    vg::Addr piece_addr = addr;
    const vg::Addr end_addr = addr + size;
    for (;;) {
        const std::uint64_t chunk =
            u >> shadow::ShadowMemory::kChunkShift;
        const std::uint64_t chunk_last_unit =
            ((chunk + 1) << shadow::ShadowMemory::kChunkShift) - 1;
        const std::uint64_t piece_last =
            std::min(last, chunk_last_unit);
        const vg::Addr piece_end = std::min<vg::Addr>(
            end_addr, (piece_last + 1) << shift);

        // Replay the serial recency/eviction decision for this chunk;
        // every victim (chunk limit, or the governor's budget loop) is
        // evicted in its owning shard before the piece that displaced
        // it is enqueued, in planner eviction order.
        victimScratch_.clear();
        planner_.touch(chunk, want_cold, victimScratch_);
        for (std::uint64_t victim : victimScratch_) {
            Shard &vs = *shards_[shardOf(victim)];
            vg::ShardRecord evict;
            evict.kind = vg::ShardRecord::kEvict;
            evict.addr = victim;
            evict.epoch = nextEpoch_++;
            vs.queue.push(evict);
            ++vs.pushed;
        }

        record.addr = piece_addr;
        record.size = static_cast<std::uint32_t>(piece_end - piece_addr);
        record.epoch = nextEpoch_++;
        Shard &s = *shards_[shardOf(chunk)];
        s.queue.push(record);
        ++s.pushed;

        if (piece_last == last)
            break;
        u = piece_last + 1;
        piece_addr = piece_end;
    }
}

void
ShardEngine::drain()
{
    for (auto &shard : shards_) {
        const std::uint64_t target = shard->pushed;
        int spins = 0;
        while (shard->processed.load(std::memory_order_acquire) <
               target) {
            if (spins < 64) {
                ++spins;
                std::this_thread::yield();
            } else {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            }
        }
    }
}

shadow::ShadowRef
ShardEngine::restoreUnit(std::uint64_t unit, bool has_cold)
{
    const std::uint64_t chunk =
        unit >> shadow::ShadowMemory::kChunkShift;
    planner_.restoreTouch(chunk, has_cold);
    return shards_[shardOf(chunk)]->shadow.restoreLookup(unit,
                                                         has_cold);
}

shadow::StampId
ShardEngine::internWriterFor(std::uint64_t unit,
                             const shadow::WriterStamp &s)
{
    const std::uint64_t chunk =
        unit >> shadow::ShadowMemory::kChunkShift;
    return shards_[shardOf(chunk)]->shadow.internWriter(s);
}

shadow::StampId
ShardEngine::internReaderFor(std::uint64_t unit,
                             const shadow::ReaderStamp &s)
{
    const std::uint64_t chunk =
        unit >> shadow::ShadowMemory::kChunkShift;
    return shards_[shardOf(chunk)]->shadow.internReader(s);
}

void
ShardEngine::workerLoop(Shard &shard)
{
    std::vector<vg::ShardRecord> buf(kPopBatch);
    std::uint64_t done = 0;
    for (;;) {
        // Blocking on an empty queue is idleness, not a stall: only
        // time spent processing popped records counts for the
        // watchdog's deadline.
        if (watchdog_ != nullptr && shard.dogId >= 0)
            watchdog_->idle(shard.dogId);
        std::size_t n = shard.queue.pop(buf.data(), buf.size());
        if (n == 0)
            return; // stopped and fully drained
        if (watchdog_ != nullptr && shard.dogId >= 0)
            watchdog_->busy(shard.dogId);
        for (std::size_t i = 0; i < n; ++i)
            process(shard, buf[i]);
        done += n;
        shard.processed.store(done, std::memory_order_release);
        if (watchdog_ != nullptr && shard.dogId >= 0)
            watchdog_->beat(shard.dogId);
    }
}

void
ShardEngine::process(Shard &shard, const vg::ShardRecord &r)
{
    if (r.kind == vg::ShardRecord::kEvict) {
        shard.shadow.evictChunk(r.addr);
        return;
    }

    AccessStamp a;
    a.ctx = r.ctx;
    a.call = r.call;
    a.tick = r.tick;
    a.tid = r.tid;
    a.segSeq = r.segSeq;
    a.epoch = r.epoch;
    a.allocIdx = r.allocIdx;
    a.collecting = r.collecting;

    shadow::ShadowMemory &sh = shard.shadow;
    const std::uint64_t first = sh.unitOf(r.addr);
    const std::uint64_t last = sh.lastUnitOf(r.addr, r.size);

    if (r.kind == vg::ShardRecord::kWrite) {
        const shadow::StampId ws = sh.internWriter(shadow::WriterStamp{
            a.segSeq, a.ctx, a.tid});
        if (config_.referenceShadowPath) {
            for (std::uint64_t u = first; u <= last; ++u) {
                shadow::ShadowRef s = sh.lookup(u);
                commWriteUnit(shard.tables, reuseEnabled_, sh.stamps(),
                              s.hot, s.cold, ws);
            }
            return;
        }
        sh.span(first, last, /*want_cold=*/false,
                [&](shadow::ShadowMemory::Run run) {
                    commWriteRun(shard.tables, reuseEnabled_, sh.stamps(),
                                 run, ws);
                });
        return;
    }

    // Read: the piece is the access clamped to this chunk, and units
    // never span chunks, so classifying against the piece bounds
    // yields the serial widths. Same call-collapse rule as the serial
    // read path: with re-use off the reader call feeds nothing, so one
    // stamp per context.
    const shadow::StampId rs = sh.internReader(
        shadow::ReaderStamp{reuseEnabled_ ? a.call : 0, a.ctx});
    const bool want_cold = a.collecting && classifyEnabled_ &&
                           (reuseEnabled_ ||
                            config_.granularityShift > 0);
    ClassifyEnv env{reuseEnabled_, classifyEnabled_,
                    config_.collectEvents, config_.granularityShift};
    std::unordered_map<std::uint64_t, std::uint64_t> *xfers =
        (config_.collectEvents && a.segSeq != 0)
            ? &shard.tables.segXfers[a.segSeq]
            : nullptr;
    std::uint64_t unique_bytes = 0;
    const vg::Addr addr = r.addr;
    const vg::Addr end_addr = r.addr + r.size;

    if (config_.referenceShadowPath) {
        const unsigned shift = sh.granularityShift();
        const std::uint64_t unit_bytes = sh.unitBytes();
        for (std::uint64_t u = first; u <= last; ++u) {
            shadow::ShadowRef s = sh.lookup(u, want_cold);
            std::uint64_t unit_lo = u << shift;
            std::uint64_t unit_hi = unit_lo + unit_bytes;
            std::uint64_t lo = std::max<std::uint64_t>(addr, unit_lo);
            std::uint64_t hi =
                std::min<std::uint64_t>(end_addr, unit_hi);
            commReadUnit(shard.tables, env, sh.stamps(), s.hot, s.cold,
                         hi - lo, a, rs, xfers, unique_bytes);
        }
    } else {
        sh.span(first, last, want_cold,
                [&](shadow::ShadowMemory::Run run) {
                    commReadRun(shard.tables, env, sh.stamps(), run, addr,
                                end_addr, a, rs, xfers, unique_bytes);
                });
    }

    if (a.collecting && config_.collectObjects) {
        shard.tables.objectSlot(a.allocIdx).uniqueReadBytes +=
            unique_bytes;
    }
}

} // namespace sigil::core
