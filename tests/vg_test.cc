/**
 * @file
 * Tests for the instrumentation substrate: function registry, context
 * tree, guest control flow, traced containers, and tool dispatch.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "vg/guest.hh"
#include "vg/traced.hh"

namespace sigil::vg {
namespace {

TEST(FunctionRegistry, InternsOnce)
{
    FunctionRegistry r;
    FunctionId a = r.intern("foo");
    FunctionId b = r.intern("bar");
    FunctionId c = r.intern("foo");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    EXPECT_EQ(r.name(a), "foo");
    EXPECT_EQ(r.find("bar"), b);
    EXPECT_EQ(r.find("baz"), kInvalidFunction);
    EXPECT_EQ(r.size(), 2u);
}

TEST(ContextTree, SameEdgeSameContext)
{
    FunctionRegistry r;
    ContextTree t(r);
    FunctionId fmain = r.intern("main");
    FunctionId fa = r.intern("A");
    ContextId cmain = t.enterChild(kInvalidContext, fmain);
    ContextId ca1 = t.enterChild(cmain, fa);
    ContextId ca2 = t.enterChild(cmain, fa);
    EXPECT_EQ(ca1, ca2);
    EXPECT_EQ(t.parent(ca1), cmain);
    EXPECT_EQ(t.depth(ca1), 1);
    EXPECT_EQ(t.function(ca1), fa);
}

TEST(ContextTree, DistinctPathsDistinctContexts)
{
    FunctionRegistry r;
    ContextTree t(r);
    ContextId cmain = t.enterChild(kInvalidContext, r.intern("main"));
    ContextId ca = t.enterChild(cmain, r.intern("A"));
    ContextId cc = t.enterChild(cmain, r.intern("C"));
    FunctionId fd = r.intern("D");
    ContextId cd1 = t.enterChild(ca, fd);
    ContextId cd2 = t.enterChild(cc, fd);
    EXPECT_NE(cd1, cd2);
    EXPECT_EQ(t.displayName(cd1), "D(1)");
    EXPECT_EQ(t.displayName(cd2), "D(2)");
    EXPECT_EQ(t.pathName(cd2), "main/C/D");
    EXPECT_EQ(t.contextsOf(fd).size(), 2u);
}

TEST(ContextTree, RecursionFoldsOntoAncestor)
{
    FunctionRegistry r;
    ContextTree t(r);
    ContextId cmain = t.enterChild(kInvalidContext, r.intern("main"));
    FunctionId ff = r.intern("fib");
    ContextId c1 = t.enterChild(cmain, ff);
    ContextId c2 = t.enterChild(c1, ff);
    ContextId c3 = t.enterChild(c2, ff);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(c2, c3);
    EXPECT_EQ(t.size(), 2u);
}

TEST(ContextTree, DepthCapFoldsDeepCalls)
{
    FunctionRegistry r;
    ContextTree t(r, 2); // keep two caller levels
    ContextId cmain = t.enterChild(kInvalidContext, r.intern("main"));
    ContextId ca = t.enterChild(cmain, r.intern("A"));
    ContextId cb = t.enterChild(ca, r.intern("B"));
    EXPECT_EQ(t.depth(cb), 2);
    // C called from depth-2 B folds under A (the deepest in-cap node).
    ContextId cc = t.enterChild(cb, r.intern("C"));
    EXPECT_EQ(t.parent(cc), ca);
    EXPECT_EQ(t.depth(cc), 2);
    // Any deeper path reaching C through B lands on the same context.
    ContextId cc2 = t.enterChild(cc, r.intern("D"));
    ContextId cc3 = t.enterChild(cc2, r.intern("C"));
    EXPECT_EQ(cc3, cc);
}

TEST(GuestConfig, DepthCapBoundsContextCount)
{
    // A deep non-recursive chain of distinct functions: unlimited mode
    // separates every level; capped mode folds everything below the cap.
    auto run_chain = [](unsigned cap) {
        vg::GuestConfig config;
        config.maxContextDepth = cap;
        Guest g("t", config);
        g.enter("main");
        for (int i = 0; i < 20; ++i)
            g.enter("fn" + std::to_string(i));
        std::size_t contexts = g.contexts().size();
        g.finish();
        return contexts;
    };
    EXPECT_EQ(run_chain(0), 21u);
    EXPECT_EQ(run_chain(3), 21u); // distinct fns still get contexts
    // With repeated sibling patterns the cap merges call paths: D
    // called from B and from C below the cap shares one context.
    vg::GuestConfig config;
    config.maxContextDepth = 1;
    Guest g("t", config);
    g.enter("main");
    g.enter("B");
    g.enter("D");
    ContextId d1 = g.currentContext();
    g.leave();
    g.leave();
    g.enter("C");
    g.enter("D");
    ContextId d2 = g.currentContext();
    g.finish();
    EXPECT_EQ(d1, d2);
}

TEST(ContextTree, AncestorOrSelf)
{
    FunctionRegistry r;
    ContextTree t(r);
    ContextId cmain = t.enterChild(kInvalidContext, r.intern("main"));
    ContextId ca = t.enterChild(cmain, r.intern("A"));
    ContextId cb = t.enterChild(ca, r.intern("B"));
    EXPECT_TRUE(t.isAncestorOrSelf(cmain, cb));
    EXPECT_TRUE(t.isAncestorOrSelf(cb, cb));
    EXPECT_FALSE(t.isAncestorOrSelf(cb, cmain));
}

/** Tool that records the raw event stream it sees. */
class RecordingTool : public Tool
{
  public:
    /**
     * One delivered event plus the guest's ambient state as a callback
     * sees it: depth, the innermost call (0 at depth 0) and the clock.
     */
    struct Ev
    {
        char kind; // 'E'nter, 'L'eave, 'R'ead, 'W'rite, 'O'p, 'B'ranch,
                   // 'T'hread switch
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::size_t depth = 0;
        CallNum call = 0;
        Tick tick = 0;
    };

    void
    fnEnter(ContextId ctx, CallNum call) override
    {
        note('E', static_cast<std::uint64_t>(ctx), call);
    }

    void
    fnLeave(ContextId ctx, CallNum call) override
    {
        note('L', static_cast<std::uint64_t>(ctx), call);
    }

    void
    memRead(Addr addr, unsigned size) override
    {
        note('R', addr, size);
    }

    void
    memWrite(Addr addr, unsigned size) override
    {
        note('W', addr, size);
    }

    void
    op(std::uint64_t iops, std::uint64_t flops) override
    {
        note('O', iops, flops);
    }

    void
    branch(bool taken) override
    {
        note('B', taken ? 1u : 0u, 0);
    }

    void
    threadSwitch(ThreadId tid) override
    {
        note('T', tid, 0);
    }

    std::vector<Ev> events;

  private:
    void
    note(char kind, std::uint64_t a, std::uint64_t b)
    {
        Ev e{kind, a, b};
        e.depth = guest_->callDepth();
        e.call = e.depth > 0 ? guest_->currentCall() : 0;
        e.tick = guest_->now();
        events.push_back(e);
    }
};

TEST(Guest, DispatchesEventsInOrder)
{
    Guest g("t");
    RecordingTool tool;
    g.addTool(&tool);
    g.enter("main");
    Addr a = g.alloc(8);
    g.write(a, 8);
    g.read(a, 8);
    g.iop(3);
    g.flop(2);
    g.branch(true);
    g.enter("inner");
    g.read(a, 4);
    g.leave();
    ThreadId worker = g.spawnThread();
    g.switchThread(worker);
    g.enter("work");
    g.leave();
    g.switchThread(0);
    g.leave();
    g.finish();

    // Every callback sees the guest as it stands right after its own
    // event: a leave has already popped the frame and resumed the
    // caller, a switch has already made the incoming thread current.
    struct Expect
    {
        char kind;
        std::size_t depth;
        CallNum call;
        Tick tick;
    };
    const Expect expected[] = {
        {'E', 1, 1, 0}, // main
        {'W', 1, 1, 1},
        {'R', 1, 1, 2},
        {'O', 1, 1, 5},
        {'O', 1, 1, 7},
        {'B', 1, 1, 8},
        {'E', 2, 2, 8}, // inner
        {'R', 2, 2, 9},
        {'L', 1, 1, 9}, // inner returns: main (call 1) resumes
        {'T', 0, 0, 9}, // worker thread: empty stack
        {'E', 1, 3, 9}, // work
        {'L', 0, 0, 9},
        {'T', 1, 1, 9}, // back on thread 0, inside main
        {'L', 0, 0, 9}, // main
    };
    ASSERT_EQ(tool.events.size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(tool.events[i].kind, expected[i].kind);
        EXPECT_EQ(tool.events[i].depth, expected[i].depth);
        EXPECT_EQ(tool.events[i].call, expected[i].call);
        EXPECT_EQ(tool.events[i].tick, expected[i].tick);
    }
    EXPECT_EQ(tool.events[2].a, a);
    EXPECT_EQ(tool.events[3].a, 3u);
    EXPECT_EQ(tool.events[4].b, 2u);
    EXPECT_EQ(tool.events[7].b, 4u);
    // The leave events name the frame that was left.
    EXPECT_EQ(tool.events[8].a, tool.events[6].a);
    EXPECT_EQ(tool.events[8].b, 2u);
    EXPECT_EQ(tool.events[9].a, worker);
    EXPECT_EQ(tool.events[12].a, 0u);
}

TEST(Guest, CountersAccumulate)
{
    Guest g("t");
    g.enter("main");
    Addr a = g.alloc(64);
    g.write(a, 8);
    g.read(a, 4);
    g.iop(10);
    g.flop(5);
    g.branch(false);
    EXPECT_EQ(g.counters().reads, 1u);
    EXPECT_EQ(g.counters().readBytes, 4u);
    EXPECT_EQ(g.counters().writes, 1u);
    EXPECT_EQ(g.counters().writeBytes, 8u);
    EXPECT_EQ(g.counters().iops, 10u);
    EXPECT_EQ(g.counters().flops, 5u);
    EXPECT_EQ(g.counters().branches, 1u);
    EXPECT_EQ(g.counters().calls, 1u);
    EXPECT_EQ(g.counters().instructions(), 18u);
    EXPECT_EQ(g.now(), 18u);
}

TEST(Guest, AllocIsAlignedAndDisjoint)
{
    Guest g("t");
    Addr a = g.alloc(10);
    Addr b = g.alloc(1);
    Addr c = g.alloc(100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 1);
    EXPECT_GE(g.heapBytes(), 111u);
}

TEST(Guest, StackMarkReusesSlots)
{
    Guest g("t");
    g.enter("main");
    Addr first;
    {
        StackMark mark(g);
        first = g.stackAlloc(8);
    }
    Addr second;
    {
        StackMark mark(g);
        second = g.stackAlloc(8);
    }
    EXPECT_EQ(first, second);
    g.leave();
}

TEST(Guest, FrameRestoresStackWatermark)
{
    Guest g("t");
    g.enter("main");
    Addr before = g.stackPointer();
    g.enter("callee");
    g.stackAlloc(64);
    g.leave();
    EXPECT_EQ(g.stackPointer(), before);
    g.leave();
}

TEST(Guest, CurrentContextTracksNesting)
{
    Guest g("t");
    g.enter("main");
    ContextId cmain = g.currentContext();
    g.enter("A");
    ContextId ca = g.currentContext();
    EXPECT_NE(cmain, ca);
    EXPECT_EQ(g.contexts().parent(ca), cmain);
    EXPECT_EQ(g.callDepth(), 2u);
    g.leave();
    EXPECT_EQ(g.currentContext(), cmain);
    g.leave();
}

TEST(Guest, InputWritesAttributedToInputFunction)
{
    Guest g("t");
    RecordingTool tool;
    g.addTool(&tool);
    g.beginInput();
    EXPECT_EQ(g.contexts().function(g.currentContext()),
              g.inputFunction());
    Addr a = g.alloc(8);
    g.write(a, 8);
    g.endInput();
    EXPECT_EQ(tool.events.size(), 3u);
}

TEST(Guest, LeaveWithoutEnterPanics)
{
    Guest g("t");
    EXPECT_DEATH(g.leave(), "");
}

TEST(Guest, ReadOutsideFunctionPanics)
{
    Guest g("t");
    Addr a = g.alloc(8);
    EXPECT_DEATH(g.read(a, 8), "");
}

TEST(Guest, FinishForceUnwindsFrames)
{
    Guest g("t");
    RecordingTool tool;
    g.addTool(&tool);
    g.enter("main");
    g.enter("A");
    g.finish();
    int leaves = 0;
    for (const auto &e : tool.events)
        if (e.kind == 'L')
            ++leaves;
    EXPECT_EQ(leaves, 2);
    EXPECT_EQ(g.callDepth(), 0u);
}

TEST(GuestArray, TracedAccessHitsBackingStore)
{
    Guest g("t");
    g.enter("main");
    GuestArray<double> arr(g, 4, "a");
    arr.set(2, 3.5);
    EXPECT_DOUBLE_EQ(arr.get(2), 3.5);
    EXPECT_DOUBLE_EQ(arr.raw(2), 3.5);
    EXPECT_EQ(arr.addr(1), arr.addr(0) + sizeof(double));
    EXPECT_EQ(g.counters().reads, 1u);
    EXPECT_EQ(g.counters().writes, 1u);
    g.leave();
}

TEST(GuestArray, OutOfBoundsPanics)
{
    Guest g("t");
    g.enter("main");
    GuestArray<int> arr(g, 2, "a");
    EXPECT_DEATH(arr.get(2), "");
    EXPECT_DEATH(arr.set(5, 1), "");
    g.leave();
}

TEST(GuestArray, FillAsInputUsesInputContext)
{
    Guest g("t");
    RecordingTool tool;
    g.addTool(&tool);
    GuestArray<int> arr(g, 3, "a");
    arr.fillAsInput([](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(arr.raw(1), 1);
    // enter + 3 writes + leave
    ASSERT_EQ(tool.events.size(), 5u);
    EXPECT_EQ(tool.events[0].kind, 'E');
    EXPECT_EQ(tool.events[4].kind, 'L');
}

TEST(GuestVar, ReadsAndWrites)
{
    Guest g("t");
    g.enter("main");
    GuestVar<int> v(g, 7);
    EXPECT_EQ(v.get(), 7);
    v.set(9);
    EXPECT_EQ(v.raw(), 9);
    g.leave();
}

TEST(ArgSlot, SpillsInCallerReadsInCallee)
{
    Guest g("t");
    RecordingTool tool;
    g.addTool(&tool);
    g.enter("caller");
    {
        StackMark mark(g);
        ArgSlot<double> arg(g, 2.5);
        g.enter("callee");
        EXPECT_DOUBLE_EQ(arg.load(), 2.5);
        g.leave();
    }
    g.leave();
    // enter, write (spill), enter, read, leave, leave
    ASSERT_EQ(tool.events.size(), 6u);
    EXPECT_EQ(tool.events[1].kind, 'W');
    EXPECT_EQ(tool.events[3].kind, 'R');
    EXPECT_EQ(tool.events[1].a, tool.events[3].a);
}

} // namespace
} // namespace sigil::vg
