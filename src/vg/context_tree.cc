#include "context_tree.hh"

#include "support/logging.hh"

namespace sigil::vg {

const std::vector<ContextId> ContextTree::kEmpty;

ContextTree::ContextTree(const FunctionRegistry &functions,
                         unsigned max_depth)
    : functions_(functions), maxDepth_(max_depth)
{}

const ContextTree::Node &
ContextTree::node(ContextId ctx) const
{
    if (ctx < 0 || static_cast<std::size_t>(ctx) >= nodes_.size())
        panic("ContextTree: bad context id %d", ctx);
    return nodes_[static_cast<std::size_t>(ctx)];
}

ContextId
ContextTree::enterChild(ContextId parent, FunctionId fn)
{
    // Fold recursion: reuse the nearest ancestor with the same function.
    for (ContextId a = parent; a != kInvalidContext; a = node(a).parent) {
        if (node(a).fn == fn)
            return a;
    }

    // Depth cap (--separate-callers): calls below the cap hang off the
    // capped ancestor, merging all deeper call paths of fn under it.
    if (maxDepth_ != 0 && parent != kInvalidContext &&
        node(parent).depth >= static_cast<int>(maxDepth_)) {
        ContextId a = parent;
        while (node(a).depth >= static_cast<int>(maxDepth_))
            a = node(a).parent;
        // Re-intern beneath the in-cap ancestor; recursion folding has
        // already excluded fn from the chain, so this terminates.
        parent = a;
    }

    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(parent))
         << 32) |
        static_cast<std::uint32_t>(fn);
    auto it = byEdge_.find(key);
    if (it != byEdge_.end())
        return it->second;

    ContextId id = static_cast<ContextId>(nodes_.size());
    int d = parent == kInvalidContext ? 0 : node(parent).depth + 1;
    nodes_.push_back(Node{fn, parent, d});
    byEdge_.emplace(key, id);
    if (static_cast<std::size_t>(fn) >= byFunction_.size())
        byFunction_.resize(static_cast<std::size_t>(fn) + 1);
    byFunction_[static_cast<std::size_t>(fn)].push_back(id);
    return id;
}

FunctionId
ContextTree::function(ContextId ctx) const
{
    return node(ctx).fn;
}

ContextId
ContextTree::parent(ContextId ctx) const
{
    return node(ctx).parent;
}

int
ContextTree::depth(ContextId ctx) const
{
    return node(ctx).depth;
}

bool
ContextTree::isAncestorOrSelf(ContextId anc, ContextId ctx) const
{
    for (ContextId a = ctx; a != kInvalidContext; a = node(a).parent) {
        if (a == anc)
            return true;
    }
    return false;
}

std::string
ContextTree::displayName(ContextId ctx) const
{
    const Node &n = node(ctx);
    const std::string &fname = functions_.name(n.fn);
    const auto &siblings = contextsOf(n.fn);
    if (siblings.size() <= 1)
        return fname;
    for (std::size_t i = 0; i < siblings.size(); ++i) {
        if (siblings[i] == ctx)
            return fname + "(" + std::to_string(i + 1) + ")";
    }
    panic("ContextTree::displayName: context %d missing from its "
          "function's list", ctx);
}

std::string
ContextTree::pathName(ContextId ctx) const
{
    std::vector<ContextId> chain;
    for (ContextId a = ctx; a != kInvalidContext; a = node(a).parent)
        chain.push_back(a);
    std::string out;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        if (!out.empty())
            out += "/";
        out += functions_.name(node(*it).fn);
    }
    return out;
}

const std::vector<ContextId> &
ContextTree::contextsOf(FunctionId fn) const
{
    if (fn < 0 || static_cast<std::size_t>(fn) >= byFunction_.size())
        return kEmpty;
    return byFunction_[static_cast<std::size_t>(fn)];
}

} // namespace sigil::vg
