// protocol.h - the versioned wire contract of the resident daemon: what
// makes a frame a control frame, which ops exist, and the exact JSON each
// control answer carries. Before this lived here, every transport grew its
// own ad-hoc "op" sniffing; now classify_control() is the single decision
// and the render_* functions are the single source of every control
// payload, shared by the stdio adapter and every socket connection. The
// schema is documented (and pinned by executable examples) in
// docs/SERVING.md §"Wire protocol".
//
// Versioning: `wire_version` counts protocol-breaking changes. A client
// opens with {"op":"hello"} and receives the version plus the transport
// and capability lists; everything it needs to decide whether it can talk
// to this daemon. Unknown ops answer a structured
// {"id":"control","error":"unknown_op","op":"<name>"} - control frames
// never fall through to request parsing, so a typo'd op cannot be
// misread as a malformed scheduling request.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/metrics.h"
#include "serve/transport.h"

namespace softsched::serve {

/// Protocol generation; bumped only on breaking wire changes.
inline constexpr int wire_version = 1;

enum class control_kind {
  none,     ///< not a control frame - submit it as a request
  hello,    ///< version / capability negotiation
  stats,    ///< live counter snapshot
  shutdown, ///< drain, ack, stop
  unknown   ///< an "op" member the daemon does not recognize
};

/// Verdict of classify_control on one payload.
struct control_frame {
  control_kind kind = control_kind::none;
  std::string op; ///< the op as sent; empty when "op" was not a string
};

/// The one rule that separates control frames from requests: a payload
/// that parses as a JSON object carrying an "op" member - of *any* type -
/// is a control frame (the request schema rejects unknown keys, so no
/// request ever carries one). Unrecognized or non-string ops classify as
/// control_kind::unknown; anything unparseable is none, and the service's
/// strict request parser owns its error response.
[[nodiscard]] control_frame classify_control(std::string_view payload);

/// One connection's own live numbers, rendered next to the aggregate in
/// render_stats as the "conn" object.
struct connection_view {
  std::uint64_t frames = 0;   ///< well-formed frames read on this connection
  std::uint64_t requests = 0; ///< frames submitted to the service
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::string transport; ///< this connection's stream label
};

/// {"op":"hello","v":1,"transports":[...],"caps":[...]}
[[nodiscard]] std::string render_hello();

/// {"id":"control","error":"unknown_op","op":"<name>"} (op omitted when
/// the member was not a string).
[[nodiscard]] std::string render_unknown_op(const control_frame& frame);

/// The {"op":"stats"} answer: service counters plus the "conns" aggregate
/// and the asking connection's own "conn" object.
[[nodiscard]] std::string render_stats(const service_stats& s,
                                       const connection_counters_snapshot& conns,
                                       const connection_view& conn);

/// The connection-level shed frame a socket listener answers (and then
/// closes) when --max-conns is reached:
/// {"id":"control","error":"too_many_connections","retry_after_ms":<hint>},
/// the hint being shed_retry_after_ms (serve/engine.h).
[[nodiscard]] std::string render_connection_shed();

/// The shutdown ack, always the final frame of its connection:
/// {"op":"shutdown","drained":true,"flushed":<n>}.
[[nodiscard]] std::string render_shutdown_ack(std::size_t flushed);

} // namespace softsched::serve
