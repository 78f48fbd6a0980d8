/**
 * @file
 * The Callgrind-like profiling tool.
 *
 * Attributes self costs (instructions, ops, memory traffic, simulated
 * cache misses, branch mispredictions, call counts) to calling contexts
 * while the guest runs, and snapshots a CgProfile on demand. This
 * supplies the "estimated software run time" the partitioning case study
 * needs.
 */

#ifndef SIGIL_CG_CG_TOOL_HH
#define SIGIL_CG_CG_TOOL_HH

#include <vector>

#include "cg/branch_sim.hh"
#include "cg/cache_sim.hh"
#include "cg/cg_profile.hh"
#include "vg/guest.hh"
#include "vg/tool.hh"

namespace sigil::cg {

/** Callgrind-style cost-attribution tool. */
class CgTool : public vg::Tool
{
  public:
    /** Synthetic code region of a function: 1 KiB per function id. */
    static constexpr vg::Addr kCodeBase = 0x0000000400000000ull;
    static constexpr unsigned kFnCodeBytes = 1024;

    CgTool() : CgTool(CacheConfig{32 * 1024, 8, 64},
                      CacheConfig{8 * 1024 * 1024, 16, 64})
    {}

    CgTool(const CacheConfig &d1, const CacheConfig &ll)
        : caches_(d1, ll), i1_(CacheConfig{32 * 1024, 8, 64})
    {}

    /**
     * Restrict cost attribution to the guest's region of interest
     * (cache and predictor state still warm up outside it). Call
     * before the run starts.
     */
    void
    setRoiOnly(bool roi_only)
    {
        roiOnly_ = roi_only;
        collecting_ = !roi_only;
    }

    void fnEnter(vg::ContextId ctx, vg::CallNum call) override;
    void fnLeave(vg::ContextId ctx, vg::CallNum call) override;
    void memRead(vg::Addr addr, unsigned size) override;
    void memWrite(vg::Addr addr, unsigned size) override;
    void op(std::uint64_t iops, std::uint64_t flops) override;
    void branch(bool taken) override;
    void roi(bool active) override;

    /** The instruction-side first-level cache. */
    const CacheLevel &i1() const { return i1_; }

    /** Self counters of one context (zeroes if never seen). */
    const CgCounters &counters(vg::ContextId ctx) const;

    const CacheSim &caches() const { return caches_; }

    /** Snapshot the profile, with names and inclusive costs filled in. */
    CgProfile takeProfile() const;

  private:
    CgCounters &row(vg::ContextId ctx);

    /**
     * Fetch instruction bytes for the current context from its
     * synthetic 1 KiB code region, charging I1 misses. The fetch
     * cursor wraps, so loops re-fetch the same lines (hits) while
     * function switches touch new lines.
     */
    void fetchCode(vg::ContextId ctx, std::uint64_t instr_bytes);

    bool roiOnly_ = false;
    bool collecting_ = true;
    std::vector<CgCounters> rows_;
    std::vector<std::uint32_t> fetchPos_;
    CacheSim caches_;
    CacheLevel i1_{CacheConfig{32 * 1024, 8, 64}};
    BranchSim branches_;
    static const CgCounters kZero;
};

} // namespace sigil::cg

#endif // SIGIL_CG_CG_TOOL_HH
