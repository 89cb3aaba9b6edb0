#include "sched/run_context.h"

#include "util/thread_pool.h"

namespace softsched::sched {

run_context::run_context(arena_mode mode, std::size_t arena_block_bytes)
    : arena_(mode == arena_mode::on ? std::make_unique<util::arena>(arena_block_bytes)
                                    : nullptr) {}

run_context::~run_context() {
  // The state's vectors deallocate into the arena (a no-op), so it must
  // still be alive when they die: reset the optional before arena_ goes.
  state.reset();
}

void run_context::begin_run() {
  state.reset(); // storage lives in the arena; destroy before the rewind
  if (arena_ != nullptr) arena_->reset();
  ++runs_;
}

void run_context::accumulate(const core::schedule_stats& s) noexcept {
  for (const auto counter : core::schedule_stats_counters) totals.*counter += s.*counter;
}

worker_contexts::worker_contexts(unsigned workers) {
  slots_.reserve(workers + 1);
  for (unsigned i = 0; i <= workers; ++i) slots_.push_back(std::make_unique<run_context>());
}

run_context& worker_contexts::local() noexcept {
  const int worker = thread_pool::current_worker_index();
  return *slots_[worker >= 0 ? static_cast<std::size_t>(worker) : slots_.size() - 1];
}

} // namespace softsched::sched
