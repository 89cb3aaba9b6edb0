// serve_test.cpp - the batch scheduling service: sharded LRU cache
// (budget, eviction order, counters, concurrency), strict request parsing,
// the --serve-batch session over the service (identical requests computed
// once, cache hits, determinism across worker counts and cache sizes,
// error routing, JSONL round trip), and the exact bytes of request errors,
// response lines and control frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ir/benchmarks.h"
#include "ir/dfg_io.h"
#include "batch_session.h"
#include "serve/cache.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/request.h"
#include "util/json_parse.h"
#include "util/thread_pool.h"

namespace si = softsched::ir;
namespace sv = softsched::serve;
namespace sm = softsched::meta;
using softsched::json_error;
using softsched::parse_json;
using softsched::thread_pool;

namespace {

si::dfg_digest key_of(std::uint64_t n) { return si::dfg_digest{n, ~n}; }

sv::schedule_result result_of(long long latency, std::size_t pad = 0) {
  sv::schedule_result r;
  r.feasible = true;
  r.ops = 1;
  r.latency = latency;
  r.start_times.assign(pad + 1, latency);
  r.unit_of.assign(pad + 1, 0);
  return r;
}

sv::service_options on_jobs(int jobs) {
  sv::service_options o;
  o.jobs = jobs;
  return o;
}

/// One batch session against `svc`, its response lines parsed.
std::vector<softsched::json_value> run_lines(sv::service& svc,
                                             const std::vector<std::string>& lines) {
  return batch_session::parsed(batch_session::run(svc, lines));
}

} // namespace

// -- schedule_cache ---------------------------------------------------------

TEST(ScheduleCache, InsertLookupRoundTrip) {
  sv::schedule_cache cache(1 << 20, 4);
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
  cache.insert(key_of(1), result_of(17));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->same_schedule(result_of(17)));
  const sv::cache_counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(ScheduleCache, LruEvictsColdestFirst) {
  // One shard so the LRU order is global; budget fits exactly three values.
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(3 * one, 1);
  cache.insert(key_of(1), result_of(1));
  cache.insert(key_of(2), result_of(2));
  cache.insert(key_of(3), result_of(3));
  ASSERT_TRUE(cache.lookup(key_of(1)) != nullptr); // refresh 1: now 2 is coldest
  cache.insert(key_of(4), result_of(4));
  EXPECT_FALSE(cache.lookup(key_of(2)) != nullptr); // evicted
  EXPECT_TRUE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(3)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(4)) != nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(ScheduleCache, ReinsertReplacesValue) {
  sv::schedule_cache cache(1 << 20, 2);
  cache.insert(key_of(9), result_of(5));
  cache.insert(key_of(9), result_of(6));
  const auto hit = cache.lookup(key_of(9));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->latency, 6);
  EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(ScheduleCache, OversizeValueRejectedNotThrashed) {
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(2 * one, 1);
  cache.insert(key_of(1), result_of(1));
  cache.insert(key_of(2), result_of(2, /*pad=*/4096)); // alone exceeds the shard
  EXPECT_FALSE(cache.lookup(key_of(2)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(1)) != nullptr); // resident entry untouched
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(ScheduleCache, ZeroBudgetCachesNothingButOperates) {
  sv::schedule_cache cache(0, 4);
  cache.insert(key_of(1), result_of(1));
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
}

TEST(ScheduleCache, BudgetSplitsAcrossShards) {
  sv::schedule_cache cache(1 << 12, 8);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.shard_budget(), (1u << 12) / 8);
  const std::size_t one = result_of(1).bytes();
  for (std::uint64_t k = 0; k < 512; ++k) cache.insert(key_of(k), result_of(1));
  // Residency can never exceed the whole budget, whatever the key spread.
  EXPECT_LE(cache.counters().bytes, std::size_t{1} << 12);
  EXPECT_GE(cache.counters().entries, (1u << 12) / 8 / one); // >= one full shard
}

TEST(ScheduleCache, ClearDropsEntriesKeepsCounters) {
  sv::schedule_cache cache(1 << 20, 4);
  cache.insert(key_of(1), result_of(1));
  ASSERT_TRUE(cache.lookup(key_of(1)) != nullptr);
  cache.clear();
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().bytes, 0u);
  EXPECT_EQ(cache.counters().hits, 1u); // cumulative history survives
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
}

TEST(ScheduleCache, ConcurrentAccessKeepsAccountsConsistent) {
  sv::schedule_cache cache(1 << 18, 8);
  thread_pool pool(4);
  constexpr std::size_t lookups_per_job = 64;
  constexpr std::size_t job_count = 32;
  std::atomic<std::uint64_t> observed_hits{0};
  softsched::parallel_for_index(&pool, job_count, [&](std::size_t job) {
    for (std::size_t i = 0; i < lookups_per_job; ++i) {
      const auto key = key_of((job * lookups_per_job + i) % 16);
      if (cache.lookup(key) != nullptr) {
        observed_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        cache.insert(key, result_of(static_cast<long long>(i)));
      }
    }
  });
  const sv::cache_counters c = cache.counters();
  EXPECT_EQ(c.hits, observed_hits.load());
  EXPECT_EQ(c.hits + c.misses, job_count * lookups_per_job);
  EXPECT_LE(c.entries, 16u);
}

// -- request parsing --------------------------------------------------------

TEST(ServeRequest, ParsesBenchRequestWithDefaults) {
  const sv::request r = sv::parse_request_line(R"({"id":"q1","bench":"ewf"})");
  EXPECT_EQ(r.id, "q1");
  EXPECT_EQ(r.design.bench, "ewf");
  EXPECT_EQ(r.resources.alus, 2);
  EXPECT_EQ(r.resources.multipliers, 2);
  EXPECT_EQ(r.resources.memory_ports, 1);
  EXPECT_EQ(r.mul_latency, 2);
  EXPECT_EQ(r.meta, sm::meta_kind::list_priority);
}

TEST(ServeRequest, ParsesRandomAndDfgSources) {
  const sv::request r = sv::parse_request_line(
      R"({"random":600,"seed":7,"edge_prob":0.5,"alus":3,"muls":1,"mems":2,"mul_latency":3,"meta":"dfs"})");
  EXPECT_EQ(r.design.random_vertices, 600);
  EXPECT_EQ(r.design.seed, 7u);
  EXPECT_DOUBLE_EQ(r.design.random_edge_prob, 0.5);
  EXPECT_EQ(r.resources.alus, 3);
  EXPECT_EQ(r.mul_latency, 3);
  EXPECT_EQ(r.meta, sm::meta_kind::depth_first);

  const sv::request d =
      sv::parse_request_line(R"({"dfg":"dfg t\nop a add\nop b add a\n"})");
  EXPECT_EQ(d.dfg_text, "dfg t\nop a add\nop b add a\n");
}

TEST(ServeRequest, RejectsMalformedRequests) {
  EXPECT_THROW(sv::parse_request_line("not json"), json_error);
  EXPECT_THROW(sv::parse_request_line("[1,2]"), json_error); // not an object
  EXPECT_THROW(sv::parse_request_line(R"({"alus":2})"), json_error); // no source
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","random":5})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","typo":1})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":-1})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":2.5})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","meta":"random"})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","edge_prob":0})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":0})"), json_error);
}

TEST(ServeRequest, UnknownMetaErrorNamesTheField) {
  // The documented text (docs/SERVING.md), field prefix included, as a
  // --serve-batch client sees it.
  const std::vector<std::string> lines =
      batch_session::run(on_jobs(1), {R"({"bench":"ewf","meta":"zzz"})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(batch_session::text(batch_session::parsed(lines)[0], "error"),
            "request field 'meta': unknown meta schedule 'zzz' (expected "
            "dfs|topo|path|list)");
}

TEST(ServeRequest, SourceSignatureSeparatesDesignsAndLatency) {
  const sv::request a = sv::parse_request_line(R"({"bench":"ewf"})");
  const sv::request b = sv::parse_request_line(R"({"bench":"ewf","alus":4})");
  const sv::request c = sv::parse_request_line(R"({"bench":"ewf","mul_latency":1})");
  const sv::request d = sv::parse_request_line(R"({"bench":"hal"})");
  EXPECT_EQ(a.source_signature(), b.source_signature()); // allocation not in source
  EXPECT_NE(a.source_signature(), c.source_signature()); // latency bakes delays
  EXPECT_NE(a.source_signature(), d.source_signature());
}

// -- the batch session ------------------------------------------------------
//
// Identical requests are computed once. Whether a repeat joins the leader's
// flight or hits the cache the leader filled depends on timing, so the tests
// pin computed and the sum deduped + cache_hits, never the split.

namespace bs = batch_session;

TEST(ServeEngine, DedupsIdenticalInFlightRequests) {
  sv::service svc(on_jobs(1));
  const std::vector<std::string> lines = bs::run(svc, {
                                                          R"({"id":"a","bench":"ewf"})",
                                                          R"({"id":"b","bench":"ewf"})",
                                                          R"({"id":"c","bench":"ewf"})",
                                                          R"({"id":"d","bench":"hal"})",
                                                      });
  ASSERT_EQ(lines.size(), 4u);
  const auto rs = bs::parsed(lines);
  EXPECT_EQ(svc.stats().computed, 2u);
  EXPECT_EQ(svc.stats().deduped + svc.stats().cache_hits, 2u);
  EXPECT_EQ(bs::text(rs[0], "key"), bs::text(rs[1], "key"));
  EXPECT_EQ(bs::result_of(lines[0]), bs::result_of(lines[1]));
  EXPECT_EQ(bs::result_of(lines[0]), bs::result_of(lines[2]));
  EXPECT_NE(bs::text(rs[0], "key"), bs::text(rs[3], "key"));
  EXPECT_TRUE(rs[0].find("feasible")->as_bool());
  EXPECT_GT(rs[0].find("latency")->as_number(), 0);
}

TEST(ServeEngine, EquivalentDfgTextUnifiesWithBenchmark) {
  // A client uploading EWF as inline .dfg text (different names, ids from
  // the writer) lands on the same cache entry as {"bench":"ewf"}.
  const si::resource_library lib;
  std::ostringstream text;
  si::write_dfg(text, si::make_ewf(lib));
  std::string escaped;
  for (const char ch : text.str()) {
    if (ch == '\n') escaped += "\\n";
    else escaped += ch;
  }
  sv::service svc(on_jobs(1));
  const auto responses = run_lines(
      svc, {R"({"id":"bench","bench":"ewf"})",
            std::string(R"({"id":"text","dfg":")") + escaped + "\"}"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].find("error"), nullptr);
  EXPECT_EQ(responses[1].find("error"), nullptr) << bs::text(responses[1], "error");
  EXPECT_EQ(bs::text(responses[0], "key"), bs::text(responses[1], "key"));
  EXPECT_EQ(svc.stats().computed, 1u);
  EXPECT_EQ(svc.stats().deduped + svc.stats().cache_hits, 1u);
}

TEST(ServeEngine, DeterministicAcrossJobsAndCacheSizes) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","random":120,"seed":5})",
      R"({"id":"c","bench":"ewf","alus":3,"meta":"topo"})",
      R"({"id":"bad","bench":"nope"})",
      R"({"id":"d","random":120,"seed":5})",
      R"({"id":"e","bench":"fir16","muls":3})",
      R"(garbage line)",
      R"({"id":"f","bench":"iir4","mul_latency":1})",
  };
  const auto expected = bs::strip_ms(bs::run(on_jobs(1), lines));
  ASSERT_EQ(expected.size(), lines.size());

  for (const int jobs : {1, 4}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 26}) {
      sv::service_options opt = on_jobs(jobs);
      opt.cache_bytes = cache_bytes;
      EXPECT_EQ(bs::strip_ms(bs::run(opt, lines)), expected)
          << "jobs " << jobs << " cache " << cache_bytes;
    }
  }
}

TEST(ServeEngine, SecondRunServedEntirelyFromCache) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal","alus":1})",
  };
  sv::service svc(on_jobs(1));
  const auto cold = bs::run(svc, lines);
  EXPECT_EQ(svc.stats().computed, 2u);
  const auto hot = bs::run(svc, lines);
  EXPECT_EQ(svc.stats().computed, 2u); // unchanged: nothing recomputed
  EXPECT_EQ(svc.stats().cache_hits, 2u);
  EXPECT_EQ(bs::strip_ms(hot), bs::strip_ms(cold));
}

TEST(ServeEngine, InfeasibleAllocationIsAResponseAndCached) {
  sv::service svc(on_jobs(1));
  const auto first = bs::run(svc, {R"({"id":"x","bench":"ewf","muls":0})"});
  ASSERT_EQ(first.size(), 1u);
  const softsched::json_value r = parse_json(first[0]);
  EXPECT_EQ(r.find("error"), nullptr);
  EXPECT_FALSE(r.find("feasible")->as_bool());
  EXPECT_FALSE(bs::text(r, "infeasible_reason").empty());
  EXPECT_EQ(r.find("latency"), nullptr);
  const auto second = bs::run(svc, {R"({"id":"y","bench":"ewf","muls":0})"});
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  EXPECT_EQ(bs::result_of(second[0]), bs::result_of(first[0]));
}

TEST(ServeEngine, ErrorsStayOnTheirLines) {
  sv::service_options opt = on_jobs(2);
  opt.queue_capacity = 2; // a narrow in-flight window slides over the stream
  sv::service svc(opt);
  const auto responses = run_lines(svc, {
                                            R"({"id":"ok1","bench":"fig1"})",
                                            R"({"broken")",
                                            R"({"id":"ok2","bench":"fig1"})",
                                            R"({"id":"nope","bench":"missing"})",
                                            R"({"id":"ok3","bench":"fig1"})",
                                        });
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].find("error"), nullptr);
  EXPECT_NE(responses[1].find("error"), nullptr);
  EXPECT_EQ(responses[2].find("error"), nullptr);
  EXPECT_NE(responses[3].find("error"), nullptr);
  EXPECT_EQ(responses[4].find("error"), nullptr);
  for (std::size_t i = 0; i < responses.size(); ++i)
    EXPECT_EQ(responses[i].find("line")->as_integer(0, 10), static_cast<long long>(i + 1));
  EXPECT_EQ(bs::text(responses[1], "id"), "line2");
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.errors, 2u);
  // fig1 was computed once; the two later fig1 requests were served
  // without running the scheduler.
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.cache_hits + s.deduped, 2u);
  EXPECT_EQ(s.overloaded, 0u);
}

TEST(ServeEngine, WireCarryingDfgTextSchedules) {
  sv::service svc(on_jobs(1));
  const auto responses = run_lines(
      svc, {R"({"id":"w","dfg":"dfg t\nop a add\nwire w1 2 a\nop b add\nedge w1 b\n"})"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].find("error"), nullptr) << bs::text(responses[0], "error");
  EXPECT_TRUE(responses[0].find("feasible")->as_bool());
  EXPECT_EQ(responses[0].find("ops")->as_integer(0, 100), 3);
}

TEST(ServeEngine, StreamEmitsOneValidJsonObjectPerLine) {
  sv::service svc(on_jobs(1));
  std::istringstream in("{\"id\":\"a\",\"bench\":\"hal\"}\n"
                        "\n" // blank lines are skipped, numbering preserved
                        "{\"id\":\"b\",\"bench\":\"hal\",\"alus\":0}\n"
                        "broken\n");
  std::ostringstream out;
  EXPECT_EQ(sv::serve_batch(in, out, svc), 3u);
  svc.drain();
  EXPECT_EQ(svc.stats().errors, 1u);

  std::istringstream parsed(out.str());
  std::string line;
  std::vector<softsched::json_value> docs;
  while (std::getline(parsed, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].find("id")->as_string(), "a");
  EXPECT_TRUE(docs[0].find("feasible")->as_bool());
  ASSERT_NE(docs[0].find("start"), nullptr);
  EXPECT_EQ(static_cast<long long>(docs[0].find("start")->items().size()),
            docs[0].find("ops")->as_integer(0, 1000));
  EXPECT_EQ(docs[1].find("line")->as_integer(0, 10), 3); // blank line skipped
  EXPECT_FALSE(docs[1].find("feasible")->as_bool());
  ASSERT_NE(docs[2].find("error"), nullptr);
  EXPECT_EQ(docs[2].find("line")->as_integer(0, 10), 4);
  EXPECT_EQ(docs[2].find("id")->as_string(), "line4");

  // Compact mode drops the schedule arrays but stays valid JSONL.
  sv::service_options compact = on_jobs(1);
  compact.emit_schedule = false;
  const auto compacted = bs::run(compact, {R"({"id":"a","bench":"hal"})"});
  ASSERT_EQ(compacted.size(), 1u);
  const softsched::json_value doc = parse_json(compacted[0]);
  EXPECT_EQ(doc.find("start"), nullptr);
  EXPECT_NE(doc.find("stats"), nullptr);
}

TEST(ServeEngine, RenumberedIsomorphGetsItsOwnNumberingRegardlessOfCacheState) {
  // Regression: EWF submitted as inline .dfg text with ops declared in a
  // *different* order than the bench builder. The canonical digest unifies
  // the two, so a warm cache serves the text request from the bench
  // request's entry - the payload must still be indexed in the text
  // request's own numbering, i.e. identical to what a fresh service
  // computes for the text request alone (the cache-transparency half of
  // the determinism contract).
  const si::resource_library lib;
  const si::dfg ewf = si::make_ewf(lib);
  // Declare every op in *reverse* vertex order with no inline inputs and
  // express all dependences as explicit edge lines (legal .dfg: edge lines
  // may follow both endpoints) - a complete renumbering of the graph.
  const auto& g = ewf.graph();
  std::string permuted_text = "dfg perm\n";
  for (std::size_t i = g.vertex_count(); i-- > 0;) {
    const si::vertex_id v(static_cast<std::uint32_t>(i));
    permuted_text += "op " + std::string(g.name(v)) + " " +
                     std::string(si::kind_name(ewf.kind(v))) + "\n";
  }
  for (const si::vertex_id v : g.vertices())
    for (const si::vertex_id s : g.succs(v))
      permuted_text +=
          "edge " + std::string(g.name(v)) + " " + std::string(g.name(s)) + "\n";
  std::string escaped;
  for (const char ch : permuted_text)
    if (ch == '\n') escaped += "\\n";
    else escaped += ch;
  const std::string text_request =
      std::string(R"({"id":"t","dfg":")") + escaped + "\"}";

  // Reference: the text request alone, cold cache.
  const auto alone = bs::run(on_jobs(1), {text_request});
  ASSERT_EQ(alone.size(), 1u);
  ASSERT_EQ(parse_json(alone[0]).find("error"), nullptr) << alone[0];

  // Warmed: the bench request populates the shared cache entry first.
  sv::service warmed(on_jobs(1));
  const auto pair = bs::run(warmed, {R"({"id":"b","bench":"ewf"})", text_request});
  ASSERT_EQ(pair.size(), 2u);
  const auto docs = bs::parsed(pair);
  EXPECT_EQ(bs::text(docs[0], "key"), bs::text(docs[1], "key")); // isomorphs unify
  EXPECT_EQ(warmed.stats().computed, 1u);
  EXPECT_EQ(warmed.stats().deduped + warmed.stats().cache_hits, 1u);
  // The text request's payload is independent of who computed the entry.
  const softsched::json_value lone = parse_json(alone[0]);
  EXPECT_EQ(bs::numbers(lone, "start"), bs::numbers(docs[1], "start"));
  EXPECT_EQ(bs::numbers(lone, "unit"), bs::numbers(docs[1], "unit"));
  EXPECT_EQ(bs::result_of(alone[0]), bs::result_of(pair[1]));
  // And the two isomorphic requests agree on everything
  // numbering-independent.
  EXPECT_EQ(docs[0].find("latency")->as_number(), docs[1].find("latency")->as_number());
}

TEST(ServeRequest, RandomOnlyFieldsRejectedOnOtherSources) {
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","seed":9})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","edge_prob":0.5})"),
               json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"dfg":"dfg t\nop a add\n","seed":1})"),
               json_error);
  // ...but they remain valid with a random source.
  EXPECT_NO_THROW(sv::parse_request_line(R"({"random":50,"seed":9,"edge_prob":0.5})"));
}

TEST(ServeRequest, SourceSignatureSeparatesNearbyEdgeProbabilities) {
  // Regression: a 6-decimal rendering collided these, silently serving one
  // random family's schedule for the other.
  const sv::request a =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234564})");
  const sv::request b =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234556})");
  EXPECT_NE(a.source_signature(), b.source_signature());
  const sv::request a2 =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234564})");
  EXPECT_EQ(a.source_signature(), a2.source_signature());
}

TEST(ServeRequest, HostileNumericInputIsAnErrorNotUndefinedBehavior) {
  // Out-of-range doubles must surface as json_error (and, in a batch
  // session, as per-line error responses) - never as an out-of-range cast, which
  // the UBSan CI legs would turn into a process abort.
  EXPECT_THROW(sv::parse_request_line(R"({"random":1e30})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":50,"seed":1e300})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":50,"seed":1e18})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":-1e25})"), json_error);
  EXPECT_NO_THROW(sv::parse_request_line(R"({"random":50,"seed":4294967296})"));

  sv::service svc(on_jobs(1));
  const auto responses = run_lines(svc, {R"({"id":"x","random":1e30})"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(batch_session::text(responses[0], "error").empty());
}

TEST(ServeEngine, DedupedOversizeResultServesEveryClientAndRecomputes) {
  // The dedup x oversize corner: two clients request the same design in
  // one session, and the cache budget is too small to retain the computed
  // schedule. A follower that joins the flight is served from the
  // in-flight result itself (a cache re-lookup would find nothing); one
  // that arrives later recomputes. Either way every client gets the same
  // schedule, and the next session recomputes rather than crash or serve a
  // stale pointer.
  sv::service_options opt = on_jobs(2);
  opt.cache_bytes = 0; // every insert is oversize-rejected
  opt.cache_shards = 1;
  sv::service svc(opt);
  const auto first = bs::run(svc, {R"({"id":"a","bench":"ewf"})",
                                   R"({"id":"b","bench":"ewf"})"});
  ASSERT_EQ(first.size(), 2u);
  for (const softsched::json_value& r : bs::parsed(first)) {
    EXPECT_EQ(r.find("error"), nullptr) << bs::text(r, "error");
    EXPECT_TRUE(r.find("feasible")->as_bool());
    EXPECT_FALSE(bs::numbers(r, "start").empty());
  }
  EXPECT_EQ(bs::result_of(first[0]), bs::result_of(first[1]));
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_GE(svc.cache().counters().rejected_oversize, 1u);

  // Nothing was retained, so the next session recomputes - and agrees.
  const std::uint64_t computed = svc.stats().computed;
  const auto second = bs::run(svc, {R"({"id":"c","bench":"ewf"})"});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(parse_json(second[0]).find("error"), nullptr) << second[0];
  EXPECT_EQ(svc.stats().computed, computed + 1);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(bs::result_of(second[0]), bs::result_of(first[0]));
}

TEST(ScheduleCache, OversizeReplacementKeepsResidentValue) {
  // Regression: rejecting an oversize *replacement* must not erase the
  // value already cached under the key.
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(2 * one, 1);
  cache.insert(key_of(1), result_of(7));
  cache.insert(key_of(1), result_of(8, /*pad=*/4096)); // oversize replacement
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->latency, 7); // original survives
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
}

// -- the bytes on the wire, pinned ------------------------------------------

namespace {

std::string request_error(std::string_view line) {
  try {
    (void)sv::parse_request_line(line);
    return "<ok>";
  } catch (const json_error& e) {
    return e.what();
  }
}

/// The line write_response_line puts on a stream; render_response_line,
/// which the service sends, must hold the same bytes.
std::string response_bytes(const sv::response& r, bool emit_schedule) {
  std::ostringstream oss;
  sv::write_response_line(oss, r, emit_schedule);
  EXPECT_EQ(sv::render_response_line(r, emit_schedule), oss.str());
  return std::move(oss).str();
}

sv::response feasible_response() {
  sv::response r;
  r.line = 7;
  r.id = "q7";
  r.backend = "soft";
  r.key = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  r.result.feasible = true;
  r.result.ops = 4;
  r.result.latency = 5;
  r.result.start_times = {0, 1, 1, 3};
  r.result.unit_of = {0, 1, 0, 2};
  r.result.stats = {4, 17, 2, 4, 1, 6, 9, 1, 3, 12};
  r.ms = 0.1;
  return r;
}

constexpr std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();

} // namespace

TEST(ServeRequest, DocumentedErrorStringsAreExact) {
  // docs/SERVING.md "Error strings", through the one request parser. The
  // whole line is parsed before any field is read, so a syntax error
  // anywhere wins over a field error before it (the last block).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[1]", "request must be a JSON object"},
      {"\"text\"", "request must be a JSON object"},
      {"{\"alus\":2}", "request needs exactly one of 'bench' / 'random' / 'dfg'"},
      {"{\"bench\":\"ewf\",\"random\":5}", "request needs exactly one of 'bench' / 'random' / 'dfg'"},
      {"{\"bench\":\"ewf\",\"typo\":1}", "unknown request field 'typo'"},
      {"{\"bench\":\"ewf\",\"id\":1}", "request field 'id': must be a string"},
      {"{\"bench\":\"ewf\",\"meta\":1}", "request field 'meta': must be a string"},
      {"{\"bench\":\"ewf\",\"backend\":1}", "request field 'backend': must be a string"},
      {"{\"bench\":\"\"}", "request field 'bench': must be a non-empty benchmark name"},
      {"{\"bench\":7}", "request field 'bench': must be a non-empty benchmark name"},
      {"{\"dfg\":\"\"}", "request field 'dfg': must be non-empty .dfg text"},
      {"{\"dfg\":null}", "request field 'dfg': must be non-empty .dfg text"},
      {"{\"random\":5,\"seed\":\"x\"}", "request field 'seed': must be a number"},
      {"{\"random\":5,\"seed\":-1}", "request field 'seed': must be a non-negative integer <= 2^53"},
      {"{\"random\":5,\"seed\":1.5}", "request field 'seed': must be a non-negative integer <= 2^53"},
      {"{\"random\":5,\"seed\":1e300}", "request field 'seed': must be a non-negative integer <= 2^53"},
      {"{\"bench\":\"ewf\",\"seed\":1}", "request field 'seed': only valid with a 'random' design source"},
      {"{\"random\":5,\"edge_prob\":\"x\"}", "request field 'edge_prob': must be a number"},
      {"{\"random\":5,\"edge_prob\":0}", "request field 'edge_prob': must be in (0, 1]"},
      {"{\"random\":5,\"edge_prob\":1.5}", "request field 'edge_prob': must be in (0, 1]"},
      {"{\"bench\":\"ewf\",\"edge_prob\":0.5}", "request field 'edge_prob': only valid with a 'random' design source"},
      {"{\"bench\":\"ewf\",\"alus\":1000001}", "request field 'alus': json: number 1000001.000000 outside [0, 1000000]"},
      {"{\"bench\":\"ewf\",\"muls\":-1}", "request field 'muls': json: number -1.000000 outside [0, 1000000]"},
      {"{\"bench\":\"ewf\",\"mems\":2.5}", "request field 'mems': json: expected an integer, got 2.500000"},
      {"{\"bench\":\"ewf\",\"alus\":\"2\"}", "request field 'alus': json: expected a number"},
      {"{\"random\":0}", "request field 'random': json: number 0.000000 outside [1, 200000]"},
      {"{\"random\":200001}", "request field 'random': json: number 200001.000000 outside [1, 200000]"},
      {"{\"bench\":\"ewf\",\"mul_latency\":65}", "request field 'mul_latency': json: number 65.000000 outside [1, 64]"},
      {"{\"bench\":\"ewf\",\"mul_latency\":0}", "request field 'mul_latency': json: number 0.000000 outside [1, 64]"},
      {"{\"bench\":\"ewf\",\"meta\":\"zzz\"}", "request field 'meta': unknown meta schedule 'zzz' (expected dfs|topo|path|list)"},
      {"{\"bench\":\"ewf\",\"backend\":\"nope\"}", "request field 'backend': unknown scheduler backend 'nope' (expected soft|list|fds|sdc-iter)"},
      {"{\"bench\":\"ewf\",\"backend\":\"sdc-iter\",\"iter_budget\":2000}", "request field 'iter_budget': json: number 2000.000000 outside [0, 1024]"},
      {"{\"bench\":\"ewf\",\"iter_budget\":5}", "request field 'iter_budget': only valid with an iterative backend (backend 'soft' ignores it)"},
      {"{\"bench\":\"ewf\"} x", "json: offset 16: trailing characters after JSON value"},
      {"{\"bench\":\"ewf", "json: offset 13: unterminated string"},
      {"{\"bench\":\"ewf\",\"bench\":\"hal\"}", "json: offset 22: duplicate key 'bench'"},
      {"{\"alus\":\"x\",\"bench\":\"ewf\",}", "json: offset 26: expected string key"},
      {"{\"typo\":1,\"bench\":\"ewf\"", "json: offset 23: unexpected end of input"},
      {"{\"id\":5,\"bench\":\"ewf\"} trailing", "json: offset 23: trailing characters after JSON value"},
      {"{\"bench\":\"ewf\",\"alus\":-1,\"muls\":[1,2,]}", "json: offset 37: invalid number"},
      {"{\"random\":0,\"dfg\":\"\\q\"}", "json: offset 20: invalid escape"},
      {"not json", "json: offset 0: invalid literal"},
      {"{\"bench\":\"ewf\",\"dfg\":\"dfg t\\nop a add\\n\"}", "request needs exactly one of 'bench' / 'random' / 'dfg'"},
  };
  for (const auto& [line, expected] : cases) EXPECT_EQ(request_error(line), expected) << line;
}

TEST(ResponseBytes, ResultErrorAndOverloadedLinesArePinned) {
  const sv::response feasible = feasible_response();
  EXPECT_EQ(response_bytes(feasible, true),
      "{\"line\":7,\"id\":\"q7\",\"backend\":\"soft\",\"key\":\"0123456789abcdeffedcba9876543210\","
      "\"ops\":4,\"feasible\":true,\"latency\":5,\"start\":[0,1,1,3],\"unit\":[0,1,0,2],\"stats\":"
      "{\"select_calls\":4,\"positions_scanned\":17,\"commits\":4,\"label_passes\":1,\"cross_edge_updates\":"
      "6,\"nodes_relabeled\":9,\"closure_rebuilds\":1,\"closure_syncs\":3,\"closure_rows_touched\":"
      "12},\"ms\":0.1}");
  EXPECT_EQ(response_bytes(feasible, false),
      "{\"line\":7,\"id\":\"q7\",\"backend\":\"soft\",\"key\":\"0123456789abcdeffedcba9876543210\","
      "\"ops\":4,\"feasible\":true,\"latency\":5,\"stats\":{\"select_calls\":4,\"positions_scanned\":"
      "17,\"commits\":4,\"label_passes\":1,\"cross_edge_updates\":6,\"nodes_relabeled\":9,\"closure_rebuilds\":"
      "1,\"closure_syncs\":3,\"closure_rows_touched\":12},\"ms\":0.1}");

  sv::response infeasible;
  infeasible.line = 2;
  infeasible.id = "line2";
  infeasible.backend = "list";
  infeasible.key = {1, 2};
  infeasible.result.ops = 3;
  infeasible.result.infeasible_reason = "no functional unit for op 'm1' (kind mul)";
  infeasible.ms = 1e-7;
  EXPECT_EQ(response_bytes(infeasible, true),
      "{\"line\":2,\"id\":\"line2\",\"backend\":\"list\",\"key\":\"00000000000000010000000000000002\","
      "\"ops\":3,\"feasible\":false,\"infeasible_reason\":\"no functional unit for op 'm1' (kind mul)\","
      "\"ms\":1e-07}");

  // Every byte class the writer escapes or passes through: quote,
  // backslash, \n \r \t, other control bytes as \u00XX, DEL and UTF-8 raw.
  sv::response error;
  error.line = 9;
  error.id = "a\"b\\c\nd\re\tf\x01g\x7fh\xc3\xa9\xe2\x82\xac";
  error.error = "json: offset 3: \"\\\n\r\t\x01\x1f\x7f \xf0\x9f\x98\x80 end";
  EXPECT_EQ(response_bytes(error, true),
      "{\"line\":9,\"id\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\177h\303\251\342\202\254\",\"error\":"
      "\"json: offset 3: \\\"\\\\\\n\\r\\t\\u0001\\u001f\177 \360\237\230\200 end\",\"ms\":"
      "0}");

  sv::response shed;
  shed.line = 12;
  shed.id = "shed-1";
  shed.error = "overloaded";
  EXPECT_EQ(response_bytes(shed, true),
      "{\"line\":12,\"id\":\"shed-1\",\"error\":\"overloaded\",\"retry_after_ms\":10,\"ms\":"
      "0}");

  // Integers at the ends of their types, and ms values whose shortest
  // round-trip form is exponent or fixed notation.
  sv::response big = feasible_response();
  big.result.latency = std::numeric_limits<long long>::max();
  big.result.start_times = {0, std::numeric_limits<long long>::max(), -1, 1000000007};
  big.result.unit_of = {std::numeric_limits<int>::max(), 0, -5, 1};
  big.result.stats = {u64_max,        u64_max - 1, 1ULL << 63, (1ULL << 63) - 1, 0, 10, 99,
                      100,            1000,        18446744073709551557ULL};
  big.ms = 1e-7;
  EXPECT_EQ(response_bytes(big, true),
      "{\"line\":7,\"id\":\"q7\",\"backend\":\"soft\",\"key\":\"0123456789abcdeffedcba9876543210\","
      "\"ops\":4,\"feasible\":true,\"latency\":9223372036854775807,\"start\":[0,9223372036854775807,"
      "-1,1000000007],\"unit\":[2147483647,0,-5,1],\"stats\":{\"select_calls\":18446744073709551615,"
      "\"positions_scanned\":18446744073709551614,\"commits\":9223372036854775807,\"label_passes\":"
      "0,\"cross_edge_updates\":10,\"nodes_relabeled\":99,\"closure_rebuilds\":100,\"closure_syncs\":"
      "1000,\"closure_rows_touched\":18446744073709551557},\"ms\":1e-07}");
  big.ms = 123456.789;
  EXPECT_EQ(response_bytes(big, false),
      "{\"line\":7,\"id\":\"q7\",\"backend\":\"soft\",\"key\":\"0123456789abcdeffedcba9876543210\","
      "\"ops\":4,\"feasible\":true,\"latency\":9223372036854775807,\"stats\":{\"select_calls\":"
      "18446744073709551615,\"positions_scanned\":18446744073709551614,\"commits\":9223372036854775807,"
      "\"label_passes\":0,\"cross_edge_updates\":10,\"nodes_relabeled\":99,\"closure_rebuilds\":"
      "100,\"closure_syncs\":1000,\"closure_rows_touched\":18446744073709551557},\"ms\":123456.789}");
}

TEST(ResponseBytes, ControlFramesArePinned) {
  EXPECT_EQ(sv::render_hello(),
      "{\"op\":\"hello\",\"v\":1,\"transports\":[\"stdio\",\"tcp\",\"unix\"],\"caps\":[\"hello\","
      "\"stats\",\"shutdown\",\"ordered\",\"streaming\",\"shed\",\"dedup\",\"disk_cache\"]}");
  EXPECT_EQ(sv::render_unknown_op({sv::control_kind::unknown, "fr\"ob\\nicate\n"}),
      "{\"id\":\"control\",\"error\":\"unknown_op\",\"op\":\"fr\\\"ob\\\\nicate\\n\",\"v\":"
      "1}");
  EXPECT_EQ(sv::render_unknown_op({sv::control_kind::unknown, ""}),
      "{\"id\":\"control\",\"error\":\"unknown_op\",\"v\":1}");
  EXPECT_EQ(sv::render_shutdown_ack(3), R"({"op":"shutdown","drained":true,"flushed":3})");
  EXPECT_EQ(sv::render_shutdown_ack(0), R"({"op":"shutdown","drained":true,"flushed":0})");
  EXPECT_EQ(sv::render_connection_shed(),
            R"({"id":"control","error":"too_many_connections","retry_after_ms":10})");

  sv::service_stats s;
  s.submitted = u64_max;
  s.admitted = u64_max - 1;
  s.overloaded = 1;
  s.completed = 1ULL << 63;
  s.errors = 2;
  s.computed = 3;
  s.cache_hits = 4;
  s.deduped = 5;
  s.queue_depth = 6;
  s.peak_queue_depth = 7;
  s.uptime_ms = 1234.5;
  s.qps = 0.1;
  s.p50_ms = 1e-7;
  s.p95_ms = 2.5;
  s.p99_ms = 1e21;
  s.hit_rate = 1.0 / 3.0;
  s.disk_enabled = true;
  s.disk.hits = 11;
  s.disk.misses = 12;
  s.disk.writes = 13;
  s.disk.evictions = 14;
  s.disk.corrupt_dropped = 15;
  s.disk.io_errors = 16;
  s.disk.queue_dropped = 17;
  s.disk.flushed = 18;
  s.disk.entries = 19;
  s.disk.bytes = 20;
  s.disk.degraded = true;
  s.disk.recovery_scan_ms = 0.25;
  s.disk.recovered_entries = u64_max;
  sv::connection_counters_snapshot conns;
  conns.accepted = 21;
  conns.active = 1;
  conns.closed = 20;
  conns.transport_errors = 2;
  conns.faulted = 1;
  conns.bytes_in = u64_max;
  conns.bytes_out = 1ULL << 40;
  conns.transport = "unix";
  sv::connection_view self;
  self.frames = 30;
  self.requests = 29;
  self.bytes_in = 4096;
  self.bytes_out = 8192;
  self.transport = "unix:/tmp/d \"q\".sock";
  EXPECT_EQ(sv::render_stats(s, conns, self),
      "{\"op\":\"stats\",\"v\":1,\"uptime_ms\":1234.5,\"qps\":0.1,\"p50_ms\":1e-07,\"p95_ms\":"
      "2.5,\"p99_ms\":1e+21,\"queue_depth\":6,\"peak_queue_depth\":7,\"hit_rate\":0.3333333333333333,"
      "\"submitted\":18446744073709551615,\"admitted\":18446744073709551614,\"overloaded\":"
      "1,\"completed\":9223372036854775808,\"errors\":2,\"computed\":3,\"cache_hits\":4,\"deduped\":"
      "5,\"conns\":{\"transport\":\"unix\",\"accepted\":21,\"active\":1,\"shed\":0,\"closed\":"
      "20,\"transport_errors\":2,\"faulted\":1,\"bytes_in\":18446744073709551615,\"bytes_out\":"
      "1099511627776},\"conn\":{\"transport\":\"unix:/tmp/d \\\"q\\\".sock\",\"frames\":30,"
      "\"requests\":29,\"bytes_in\":4096,\"bytes_out\":8192},\"disk\":{\"enabled\":true,\"degraded\":"
      "true,\"hits\":11,\"misses\":12,\"writes\":13,\"evictions\":14,\"corrupt_dropped\":15,"
      "\"io_errors\":16,\"queue_dropped\":17,\"flushed\":18,\"entries\":19,\"bytes\":20,\"recovery_scan_ms\":"
      "0.25,\"recovered_entries\":18446744073709551615}}");
  EXPECT_EQ(sv::render_stats({}, {}, {}),
      "{\"op\":\"stats\",\"v\":1,\"uptime_ms\":0,\"qps\":0,\"p50_ms\":0,\"p95_ms\":0,\"p99_ms\":"
      "0,\"queue_depth\":0,\"peak_queue_depth\":0,\"hit_rate\":0,\"submitted\":0,\"admitted\":"
      "0,\"overloaded\":0,\"completed\":0,\"errors\":0,\"computed\":0,\"cache_hits\":0,\"deduped\":"
      "0,\"conns\":{\"transport\":\"\",\"accepted\":0,\"active\":0,\"shed\":0,\"closed\":0,"
      "\"transport_errors\":0,\"faulted\":0,\"bytes_in\":0,\"bytes_out\":0},\"conn\":{\"transport\":"
      "\"\",\"frames\":0,\"requests\":0,\"bytes_in\":0,\"bytes_out\":0},\"disk\":{\"enabled\":"
      "false,\"degraded\":false,\"hits\":0,\"misses\":0,\"writes\":0,\"evictions\":0,\"corrupt_dropped\":"
      "0,\"io_errors\":0,\"queue_dropped\":0,\"flushed\":0,\"entries\":0,\"bytes\":0,\"recovery_scan_ms\":"
      "0,\"recovered_entries\":0}}");
}
