#include "fault_injection.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "support/rng.hh"
#include "vg/trace_io.hh"

namespace sigil::vg {

namespace {

std::string
describe(const char *fmt, std::uint64_t a, std::uint64_t b,
         std::uint64_t c)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c));
    return buf;
}

std::string
applyBitFlips(Rng &rng, std::string &trace)
{
    std::uint64_t bits = 1 + rng.nextBounded(8);
    std::uint64_t lo = trace.size(), hi = 0;
    for (std::uint64_t i = 0; i < bits; ++i) {
        std::uint64_t off = rng.nextBounded(trace.size());
        trace[static_cast<std::size_t>(off)] ^=
            static_cast<char>(1u << rng.nextBounded(8));
        lo = std::min(lo, off);
        hi = std::max(hi, off + 1);
    }
    return describe("bit-flips: %llu bits in [%llu, %llu)", bits, lo, hi);
}

std::string
applyTruncate(Rng &rng, std::string &trace)
{
    // Keep at least one byte so "empty file" stays a separate case.
    std::uint64_t cut = 1 + rng.nextBounded(trace.size() - 1);
    std::uint64_t lost = trace.size() - cut;
    trace.resize(static_cast<std::size_t>(cut));
    return describe("truncate: at %llu (%llu bytes lost)", cut, lost, 0);
}

std::string
applyGarbageBurst(Rng &rng, std::string &trace)
{
    std::uint64_t len =
        1 + rng.nextBounded(std::min<std::uint64_t>(trace.size(), 512));
    std::uint64_t off = rng.nextBounded(trace.size() - len + 1);
    for (std::uint64_t i = 0; i < len; ++i)
        trace[static_cast<std::size_t>(off + i)] =
            static_cast<char>(rng.next());
    return describe("garbage-burst: %llu bytes at %llu", len, off, 0);
}

std::string
applyDuplicateBlock(Rng &rng, std::string &trace)
{
    std::vector<FrameInfo> blocks = scanFrames(trace);
    if (blocks.empty())
        return applyGarbageBurst(rng, trace);
    const FrameInfo &b =
        blocks[static_cast<std::size_t>(rng.nextBounded(blocks.size()))];
    std::string copy = trace.substr(static_cast<std::size_t>(b.offset),
                                    static_cast<std::size_t>(b.length));
    trace.insert(static_cast<std::size_t>(b.offset + b.length), copy);
    return describe("duplicate-block: frame at %llu (%llu bytes)",
                    b.offset, b.length, 0);
}

std::string
applyReorderBlocks(Rng &rng, std::string &trace)
{
    // Swap two adjacent *event* frames: swapping a function-table
    // frame past the events that need it would test name loss, which
    // DuplicateBlock-style staleness does not intend to cover here.
    std::vector<FrameInfo> blocks = scanFrames(trace);
    std::vector<std::size_t> events;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i].tag == 0x02)
            events.push_back(i);
    }
    // Adjacent pairs need adjacent frames too (no function frame in
    // between), or the swap would not be a pure reorder.
    std::vector<std::size_t> pairs;
    for (std::size_t k = 0; k + 1 < events.size(); ++k) {
        const FrameInfo &a = blocks[events[k]];
        const FrameInfo &b = blocks[events[k] + 1];
        if (events[k] + 1 == events[k + 1] &&
            a.offset + a.length == b.offset)
            pairs.push_back(events[k]);
    }
    if (pairs.empty())
        return applyGarbageBurst(rng, trace);
    const FrameInfo &a =
        blocks[pairs[static_cast<std::size_t>(
            rng.nextBounded(pairs.size()))]];
    const FrameInfo &b = blocks[&a - blocks.data() + 1];
    std::string first = trace.substr(static_cast<std::size_t>(a.offset),
                                     static_cast<std::size_t>(a.length));
    std::string second = trace.substr(static_cast<std::size_t>(b.offset),
                                      static_cast<std::size_t>(b.length));
    trace.replace(static_cast<std::size_t>(a.offset),
                  static_cast<std::size_t>(a.length + b.length),
                  second + first);
    return describe("reorder-blocks: frames at %llu and %llu", a.offset,
                    b.offset, 0);
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::BitFlips:
        return "bit-flips";
    case FaultKind::Truncate:
        return "truncate";
    case FaultKind::GarbageBurst:
        return "garbage-burst";
    case FaultKind::DuplicateBlock:
        return "duplicate-block";
    case FaultKind::ReorderBlocks:
        return "reorder-blocks";
    }
    return "unknown";
}

FaultPlan
FaultPlan::fromSeed(std::uint64_t seed)
{
    Rng rng(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.kind = static_cast<FaultKind>(rng.nextBounded(5));
    return plan;
}

std::string
FaultPlan::apply(std::string &trace) const
{
    if (trace.size() < 2)
        return "no-op: trace too small";
    Rng rng(seed);
    rng.next(); // burn the kind-selection draw of fromSeed()
    switch (kind) {
    case FaultKind::BitFlips:
        return applyBitFlips(rng, trace);
    case FaultKind::Truncate:
        return applyTruncate(rng, trace);
    case FaultKind::GarbageBurst:
        return applyGarbageBurst(rng, trace);
    case FaultKind::DuplicateBlock:
        return applyDuplicateBlock(rng, trace);
    case FaultKind::ReorderBlocks:
        return applyReorderBlocks(rng, trace);
    }
    return "no-op: unknown kind";
}

} // namespace sigil::vg
