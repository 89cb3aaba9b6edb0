#include "serve/options.h"

#include "util/check.h"

namespace softsched::serve {

bool parse_arena_flag(const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  throw precondition_error("--arena must be on or off, got '" + value + "'");
}

void validate_serve_flags(const serve_flags& flags) {
  (void)parse_arena_flag(flags.arena); // throws on a malformed value
  SOFTSCHED_EXPECT(flags.cache_mb >= 0, "--cache-mb must be >= 0");
  SOFTSCHED_EXPECT(flags.disk_cache_mb >= 0, "--disk-cache-mb must be >= 0");
  SOFTSCHED_EXPECT(flags.serve_queue >= 1, "--serve-queue must be >= 1");
  SOFTSCHED_EXPECT(flags.max_conns >= 1, "--max-conns must be >= 1");
  (void)listen_spec::parse(flags.listen); // throws on a malformed spec
}

listen_spec listen_from_flags(const serve_flags& flags) {
  validate_serve_flags(flags);
  return listen_spec::parse(flags.listen);
}

daemon_options daemon_options_from_flags(const serve_flags& flags) {
  validate_serve_flags(flags);
  daemon_options opt;
  opt.service.jobs = flags.jobs;
  opt.service.cache_bytes = static_cast<std::size_t>(flags.cache_mb) << 20;
  opt.service.queue_capacity = static_cast<std::size_t>(flags.serve_queue);
  opt.service.emit_schedule = !flags.serve_compact;
  opt.service.faults = fault_plan::from_env();
  opt.service.cache_dir = flags.cache_dir;
  opt.service.disk_cache_bytes = static_cast<std::size_t>(flags.disk_cache_mb) << 20;
  opt.service.arena = parse_arena_flag(flags.arena);
  opt.ordered = flags.serve_ordered;
  opt.max_connections = static_cast<std::size_t>(flags.max_conns);
  return opt;
}

} // namespace softsched::serve
