#include "stamp_table.hh"

#include <limits>

#include "support/logging.hh"

namespace sigil::shadow {

namespace {

/** splitmix64 finalizer; mixes each field into the running hash. */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return h;
}

} // namespace

std::size_t
StampTable::WriterHash::operator()(const WriterStamp &s) const
{
    std::uint64_t h = mix(0, s.seq);
    h = mix(h, (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(s.ctx))
                << 32) |
                   s.thread);
    return static_cast<std::size_t>(h);
}

StampTable::StampTable()
{
    // Reserved null entries: id 0 is the default (never written /
    // never read) state, so a zero-filled hot array needs no fixup.
    writers_.push_back(WriterStamp{});
    writerIndex_.emplace(WriterStamp{}, 0);
    readers_.push_back(ReaderStamp{});
}

StampId
StampTable::internWriter(const WriterStamp &s)
{
    if (s == lastWriter_)
        return lastWriterId_;
    auto [it, inserted] =
        writerIndex_.try_emplace(s, static_cast<StampId>(writers_.size()));
    if (inserted) {
        if (writers_.size() >
            std::numeric_limits<StampId>::max()) {
            fatal("StampTable: writer stamp ids exhausted (%zu entries)",
                  writers_.size());
        }
        writers_.push_back(s);
    }
    lastWriter_ = s;
    lastWriterId_ = it->second;
    return it->second;
}

StampId
StampTable::appendReader(const ReaderStamp &s)
{
    if (readers_.size() > std::numeric_limits<StampId>::max()) {
        fatal("StampTable: reader stamp ids exhausted (%zu entries)",
              readers_.size());
    }
    readers_.push_back(s);
    return static_cast<StampId>(readers_.size() - 1);
}

StampId
StampTable::internReader(const ReaderStamp &s)
{
    if (s == lastReader_)
        return lastReaderId_;
    StampId id = 0;
    if (s.call == 0) {
        // Context + 1 in 32-bit arithmetic, so the null tuple's
        // context (-1) lands on key 0, which stays empty: id 0.
        StampId &slot = readersByContext_.slot(
            static_cast<std::uint32_t>(s.ctx) + 1u);
        if (slot == 0 && !(s == ReaderStamp{}))
            slot = appendReader(s);
        id = slot;
    } else {
        if (s.call > kMaxReaderCall) {
            fatal("StampTable: reader call number %llu beyond the "
                  "indexed range",
                  static_cast<unsigned long long>(s.call));
        }
        StampId &slot = readersByCall_.slot(s.call);
        if (slot == 0)
            slot = appendReader(s);
        id = slot;
        if (readers_[id].ctx != s.ctx) {
            auto [it, inserted] =
                sharedCallReaders_.try_emplace({s.call, s.ctx}, 0);
            if (inserted)
                it->second = appendReader(s);
            id = it->second;
        }
    }
    lastReader_ = s;
    lastReaderId_ = id;
    return id;
}

} // namespace sigil::shadow
