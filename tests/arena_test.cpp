// arena_test.cpp - the bump/block arena and the run_context memory model:
// alignment, O(1) reset with block retention, geometric growth, oversize
// requests, counter accuracy; then the two properties the redesign gates
// on: (1) instrumented allocation counts - a warmed arena context runs the
// soft scheduler with several-fold fewer heap allocations than heap mode -
// and (2) the service's responses, always arena-backed, are byte-identical
// across worker counts and cache sizes to a reference built stage by stage
// on a heap-mode context.
//
// This binary links softsched::alloc_count, so every operator new in the
// process is counted; tests diff the counters around the region of
// interest instead of expecting absolute values.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "batch_session.h"
#include "ir/benchmarks.h"
#include "sched/backend.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "util/alloc_count.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/json_parse.h"

namespace si = softsched::ir;
namespace ss = softsched::sched;
namespace sv = softsched::serve;
namespace su = softsched::util;

namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

} // namespace

// -- arena ------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedIncludingOverAligned) {
  su::arena a(256);
  // Deliberately misalign the bump pointer before each aligned request.
  for (const std::size_t align : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                                  std::size_t{64}, std::size_t{128}}) {
    (void)a.allocate(3, 1);
    void* p = a.allocate(align * 2, align);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned_to(p, align)) << "align " << align;
  }
  // Zero-byte requests still yield distinct valid pointers (operator new
  // parity, so arena_vector behaves like std::vector on empty reserves).
  void* p0 = a.allocate(0, 1);
  void* p1 = a.allocate(0, 1);
  EXPECT_NE(p0, nullptr);
  EXPECT_NE(p0, p1);
}

TEST(Arena, ResetRetainsBlocksAndSteadyStateIsHeapSilent) {
  su::arena a(4096);
  const auto fill = [&] {
    for (int i = 0; i < 64; ++i) (void)a.allocate(128, 8);
  };
  fill(); // warm-up: grows whatever blocks this pattern needs
  a.reset();
  const std::size_t blocks = a.stats().blocks;
  const std::size_t capacity = a.stats().block_bytes;
  const std::uint64_t heap_before = su::heap_alloc_count();
  for (int run = 0; run < 10; ++run) {
    fill();
    EXPECT_EQ(a.live_bytes(), 64u * 128u);
    a.reset();
    EXPECT_EQ(a.live_bytes(), 0u);
  }
  // The steady state: zero operator new anywhere in the loop, and the
  // block set is exactly what the warm-up left behind.
  EXPECT_EQ(su::heap_alloc_count(), heap_before);
  EXPECT_EQ(a.stats().blocks, blocks);
  EXPECT_EQ(a.stats().block_bytes, capacity);
}

TEST(Arena, BlocksGrowGeometricallyNotPerAllocation) {
  su::arena a(64); // floor block size
  for (int i = 0; i < 256; ++i) (void)a.allocate(64, 8);
  // 16 KiB served from 64-byte seed blocks: linear growth would need ~256
  // blocks, geometric doubling needs at most a dozen.
  EXPECT_GE(a.stats().blocks, 2u);
  EXPECT_LE(a.stats().blocks, 12u);
  EXPECT_GE(a.stats().block_bytes, 256u * 64u);
}

TEST(Arena, OversizeRequestGetsDedicatedBlock) {
  su::arena a(64);
  (void)a.allocate(16, 8);
  const std::size_t before = a.stats().blocks;
  void* big = a.allocate(1 << 20, 64); // far beyond any geometric step
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(aligned_to(big, 64));
  EXPECT_EQ(a.stats().blocks, before + 1);
  // The small-block chain is not poisoned: the next small request must not
  // trigger another 1 MiB block.
  const std::size_t bytes_after_big = a.stats().block_bytes;
  (void)a.allocate(16, 8);
  EXPECT_EQ(a.stats().block_bytes, bytes_after_big);
}

TEST(Arena, CountersTrackAllocationsBytesAndResets) {
  su::arena a(1024);
  EXPECT_EQ(a.stats().allocations, 0u);
  (void)a.allocate(100, 8);
  (void)a.allocate(28, 4);
  EXPECT_EQ(a.stats().allocations, 2u);
  EXPECT_EQ(a.stats().bytes, 128u);
  EXPECT_EQ(a.live_bytes(), 128u);
  EXPECT_EQ(a.stats().peak_bytes, 128u);
  a.reset();
  EXPECT_EQ(a.stats().resets, 1u);
  EXPECT_EQ(a.live_bytes(), 0u);
  (void)a.allocate(8, 8);
  // Cumulative counters survive reset (they feed the per-run averages);
  // peak tracks the high-water mark across resets.
  EXPECT_EQ(a.stats().allocations, 3u);
  EXPECT_EQ(a.stats().peak_bytes, 128u);
  a.release();
  EXPECT_EQ(a.stats().blocks, 0u);
  EXPECT_EQ(a.stats().block_bytes, 0u);
}

TEST(ArenaAllocator, NullArenaIsTheHeapBaseline) {
  su::arena_vector<int> heap_backed; // default: null arena -> operator new
  for (int i = 0; i < 1000; ++i) heap_backed.push_back(i);
  su::arena a;
  su::arena_vector<int> arena_backed{su::arena_allocator<int>(&a)};
  for (int i = 0; i < 1000; ++i) arena_backed.push_back(i);
  ASSERT_EQ(heap_backed.size(), arena_backed.size());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(heap_backed[i], arena_backed[i]);
  EXPECT_GT(a.stats().allocations, 0u);
}

// -- instrumented allocation regression ------------------------------------

TEST(AllocRegression, WarmedArenaContextBeatsHeapModeFivefold) {
  const si::resource_library lib;
  const si::dfg design = si::make_benchmark("ewf", lib);
  const si::resource_set constraint = si::figure3_constraint(0);
  const ss::scheduler_backend& soft = ss::get_backend("soft");

  ss::run_context with_arena(ss::arena_mode::on);
  ss::run_context heap_mode(ss::arena_mode::off);
  // One warm-up run each: the arena grows its blocks, vectors reach their
  // steady-state capacity. What's measured below is the serve hot loop.
  const ss::backend_outcome warm_a = soft.run({design, lib, constraint, {}}, with_arena);
  const ss::backend_outcome warm_h = soft.run({design, lib, constraint, {}}, heap_mode);
  ASSERT_TRUE(warm_a.feasible);
  ASSERT_TRUE(warm_a.same_outcome(warm_h));

  constexpr int runs = 20;
  const std::uint64_t arena_before = su::heap_alloc_count();
  for (int i = 0; i < runs; ++i)
    ASSERT_TRUE(soft.run({design, lib, constraint, {}}, with_arena).same_outcome(warm_a));
  const std::uint64_t arena_allocs = su::heap_alloc_count() - arena_before;

  const std::uint64_t heap_before = su::heap_alloc_count();
  for (int i = 0; i < runs; ++i)
    ASSERT_TRUE(soft.run({design, lib, constraint, {}}, heap_mode).same_outcome(warm_a));
  const std::uint64_t heap_allocs = su::heap_alloc_count() - heap_before;

  // The redesign's memory gate: the warmed arena path must allocate at
  // least 5x less per run than heap mode (BENCH_softsched.json gates the
  // same ratio; this is the in-tree regression tripwire). The remaining
  // arena-mode allocations are the outcome vectors themselves.
  EXPECT_GE(heap_allocs, 5u * arena_allocs)
      << "heap mode " << heap_allocs << " allocs vs arena " << arena_allocs << " over "
      << runs << " runs";
  // And reuse really is happening, not just cheap runs all around: one
  // reset per begin_run (the warm-up plus every measured run).
  EXPECT_EQ(with_arena.arena_stats()->resets, 1u + runs);
}

// -- serve byte parity ------------------------------------------------------

namespace {

/// The response line the service owes `text` as request `line`, built from
/// the pipeline's stage functions on `heap` - no service, no cache, no
/// dedup, no arena.
std::string reference_line(std::size_t line, const std::string& text,
                           ss::run_context& heap) {
  sv::response r;
  r.line = line;
  r.id = "line" + std::to_string(line);
  try {
    const sv::request req = sv::parse_request_line(text);
    if (!req.id.empty()) r.id = req.id;
    r.backend = req.backend;
    const sv::source_info source = sv::hash_request_source(req);
    if (!source.error.empty()) {
      r.error = source.error;
    } else {
      r.key = sv::schedule_key_for(req, source.digest);
      r.result = sv::result_to_source_order(
          sv::compute_canonical_schedule(req, source.canonical_of, heap), source.canonical_of);
    }
  } catch (const softsched::json_error& e) {
    r.error = e.what();
  }
  std::ostringstream out;
  sv::write_response_line(out, r, /*emit_schedule=*/true);
  return batch_session::strip_ms(out.str());
}

} // namespace

TEST(ServeParity, ArenaOnOffByteIdenticalAcrossJobsAndCaches) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal","alus":1})",
      R"({"id":"c","random":120,"seed":5})",
      R"({"id":"d","bench":"ewf","alus":3,"meta":"topo"})",
      R"({"id":"bad","bench":"nope"})",
      R"({"id":"e","bench":"fir16","muls":3})",
      R"({"id":"f","bench":"iir4","mul_latency":1})",
  };
  // The heap baseline is the reference: one heap-mode context runs every
  // request through the stage functions in turn.
  ss::run_context heap(ss::arena_mode::off);
  ASSERT_FALSE(heap.arena_enabled());
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < lines.size(); ++i)
    expected.push_back(reference_line(i + 1, lines[i], heap));
  ASSERT_NE(expected[4].find("\"error\""), std::string::npos) << expected[4]; // "bad"

  // ms is the one field allowed to differ between configurations.
  for (const int jobs : {1, 4, 8}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 26}) {
      sv::service_options opt;
      opt.jobs = jobs;
      opt.cache_bytes = cache_bytes;
      EXPECT_EQ(batch_session::strip_ms(batch_session::run(opt, lines)), expected)
          << "jobs " << jobs << " cache " << cache_bytes;
    }
  }
}
