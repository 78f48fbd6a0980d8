/**
 * @file
 * Calling-context tree.
 *
 * A context is a function qualified by the chain of functions it was
 * called through, matching Callgrind's context-sensitive cost
 * attribution ("we keep separate accounting of costs for functions
 * called through different contexts"). Recursive calls are folded onto
 * the nearest ancestor context of the same function so the tree stays
 * finite for recursive programs.
 */

#ifndef SIGIL_VG_CONTEXT_TREE_HH
#define SIGIL_VG_CONTEXT_TREE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "vg/function_registry.hh"
#include "vg/types.hh"

namespace sigil::vg {

/** Interns (parent context, function) pairs into dense ContextIds. */
class ContextTree
{
  public:
    /**
     * @param functions Name registry the tree annotates.
     * @param max_depth Context-separation depth, like Callgrind's
     *        --separate-callers: calls deeper than this are folded into
     *        their depth-limited ancestor chain by interning the child
     *        under a collapsed (parent, fn) edge at the cap. 0 means
     *        unlimited.
     */
    explicit ContextTree(const FunctionRegistry &functions,
                         unsigned max_depth = 0);

    /**
     * Context for entering function fn from context parent.
     * Pass kInvalidContext as parent for a root context. If fn already
     * appears among parent's ancestors, that ancestor context is reused
     * (recursion folding). With a depth cap, parents at the cap stand
     * in for all deeper call paths.
     */
    ContextId enterChild(ContextId parent, FunctionId fn);

    /** Function of a context. */
    FunctionId function(ContextId ctx) const;

    /** Parent context, or kInvalidContext for roots. */
    ContextId parent(ContextId ctx) const;

    /** Depth of a context (roots have depth 0). */
    int depth(ContextId ctx) const;

    /** True if anc == ctx or anc is an ancestor of ctx. */
    bool isAncestorOrSelf(ContextId anc, ContextId ctx) const;

    /**
     * Display name: the function name, suffixed with "(k)" when the
     * function appears in more than one context (k is the 1-based index
     * of this context among the function's contexts, in creation order).
     */
    std::string displayName(ContextId ctx) const;

    /** Full path, e.g. "main/localSearch/pkmedian". */
    std::string pathName(ContextId ctx) const;

    std::size_t size() const { return nodes_.size(); }

    /** All contexts whose function is fn, in creation order. */
    const std::vector<ContextId> &contextsOf(FunctionId fn) const;

  private:
    struct Node
    {
        FunctionId fn;
        ContextId parent;
        int depth;
    };

    const Node &node(ContextId ctx) const;

    const FunctionRegistry &functions_;
    unsigned maxDepth_;
    std::vector<Node> nodes_;
    std::unordered_map<std::uint64_t, ContextId> byEdge_;
    std::vector<std::vector<ContextId>> byFunction_;
    static const std::vector<ContextId> kEmpty;
};

} // namespace sigil::vg

#endif // SIGIL_VG_CONTEXT_TREE_HH
