#include "server/protocol.hh"

#include <charconv>

namespace sigil::server {

const char *
errCodeName(ErrCode code)
{
    switch (code) {
    case ErrCode::BadFrame: return "bad-frame";
    case ErrCode::BadRequest: return "bad-request";
    case ErrCode::UnknownOp: return "unknown-op";
    case ErrCode::NotFound: return "not-found";
    case ErrCode::LoadFailed: return "load-failed";
    case ErrCode::ShuttingDown: return "shutting-down";
    case ErrCode::Internal: return "internal";
    }
    return "?";
}

bool
parseCliNumber(std::string_view token, std::uint64_t max,
               std::uint64_t *out)
{
    const char *end = token.data() + token.size();
    std::uint64_t v = 0;
    auto [p, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc() || p != end || v > max)
        return false;
    *out = v;
    return true;
}

} // namespace sigil::server
