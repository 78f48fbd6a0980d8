/**
 * @file
 * Registry of function names observed by the instrumentation layer.
 *
 * Mirrors the role of debug symbols under Valgrind: every instrumented
 * function registers a stable name once and is afterwards identified by a
 * dense FunctionId.
 */

#ifndef SIGIL_VG_FUNCTION_REGISTRY_HH
#define SIGIL_VG_FUNCTION_REGISTRY_HH

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "vg/types.hh"

namespace sigil::vg {

/** Interns function names to dense ids. */
class FunctionRegistry
{
  public:
    /** Intern a name; repeated registration returns the same id. */
    FunctionId intern(std::string_view name);

    /** Look up a name without interning; kInvalidFunction if absent. */
    FunctionId find(std::string_view name) const;

    /** Name of a registered function. */
    const std::string &name(FunctionId id) const;

    std::size_t size() const { return names_.size(); }

  private:
    std::vector<std::string> names_;
    std::unordered_map<std::string, FunctionId> byName_;
};

} // namespace sigil::vg

#endif // SIGIL_VG_FUNCTION_REGISTRY_HH
