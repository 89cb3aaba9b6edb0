// threaded_graph.h - the paper's core contribution: the K-threaded
// scheduling state (Definition 4) together with Algorithm 1's
// label/select/commit operations.
//
// The state is itself a precedence graph whose vertices are the already
// scheduled operations, partitioned into K totally-ordered *threads* (one
// per functional unit). Every vertex has at most one incoming and one
// outgoing edge per thread (Lemma 7): slot out[k] points to the earliest
// thread-k vertex this vertex must precede, slot in[j] to the latest
// thread-j vertex that must precede it. Thread-chain edges live in the
// vertex's own thread slot. All Algorithm 1 costs follow from this bounded
// degree: one schedule() call is O(K * |V|).
//
// Scheduling one operation = select() the best (thread, position) pair -
// the spot minimizing the resulting critical path (Definition 5, online
// optimality) - then commit() it, re-routing cross edges by the six rules
// of the paper's Figure 2.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/precedence_graph.h"
#include "graph/reachability.h"
#include "util/arena.h"

namespace softsched::core {

using graph::precedence_graph;
using graph::vertex_id;

/// A candidate insertion point produced by select(): splice the new vertex
/// into `thread` immediately after the state node `after` (which may be the
/// thread's source sentinel). `cost` is the predicted distance
/// ||-> v ->|| through the new vertex in the updated state; by Lemmas 4-6
/// the updated diameter is max(old diameter, cost).
struct insert_position {
  int thread = -1;
  std::int32_t after = -1;
  long long cost = 0;

  [[nodiscard]] bool valid() const noexcept { return thread >= 0; }
};

/// Operation counters accumulated by a threaded_graph - the empirical side
/// of Theorem 3 (positions scanned per select() stays O(|V|); every
/// counter grows linearly in the schedule length for fixed K).
struct schedule_stats {
  std::uint64_t select_calls = 0;
  std::uint64_t positions_scanned = 0;  ///< candidate slots costed in select()
  std::uint64_t positions_rejected = 0; ///< slots skipped by the legality guard
  std::uint64_t commits = 0;
  std::uint64_t label_passes = 0;       ///< full forward+backward relabelings
  std::uint64_t cross_edge_updates = 0; ///< Figure-2 rule applications
  std::uint64_t nodes_relabeled = 0;    ///< label writes by commit patches and tdist refreshes
  std::uint64_t closure_rebuilds = 0;   ///< from-scratch transitive-closure builds
  std::uint64_t closure_syncs = 0;      ///< incremental closure catch-ups
  std::uint64_t closure_rows_touched = 0; ///< bitset rows updated by incremental syncs

  /// Field-complete by construction: determinism witnesses (DSE, serve)
  /// compare stats blocks, and a hand-rolled comparison would silently
  /// ignore the next counter added here.
  friend bool operator==(const schedule_stats&, const schedule_stats&) = default;
};

/// Every schedule_stats counter, in disk-record order: the one list the
/// persistent tier's record codec (serve/diskcache.cpp) and
/// run_context::accumulate iterate.
inline constexpr std::array schedule_stats_counters = {
    &schedule_stats::select_calls,       &schedule_stats::positions_scanned,
    &schedule_stats::positions_rejected, &schedule_stats::commits,
    &schedule_stats::label_passes,       &schedule_stats::cross_edge_updates,
    &schedule_stats::nodes_relabeled,    &schedule_stats::closure_rebuilds,
    &schedule_stats::closure_syncs,      &schedule_stats::closure_rows_touched};
static_assert(sizeof(schedule_stats) ==
                  schedule_stats_counters.size() * sizeof(std::uint64_t),
              "schedule_stats_counters must list every schedule_stats counter");

/// The K-threaded scheduling state over a precedence graph G, plus the
/// threaded-schedule online algorithm (Algorithm 1).
///
/// Thread compatibility: every thread carries an integer `tag`; a vertex
/// may only be scheduled into threads whose tag equals `vertex_tag(v)`.
/// The default tag function maps every vertex to 0 (the paper's "each
/// function unit can implement all operations" assumption); the HLS
/// binding (hls_binding.h) supplies resource-class tags instead.
///
/// The referenced graph may *grow* after construction (the refinement
/// engine inserts spill/wire/move vertices), and it only ever grows in
/// reachability; the transitive-closure cache is built once and then
/// catches up by replaying that growth via precedence_graph::cursor()
/// (see docs/DESIGN.md §4).
class threaded_graph {
public:
  using tag_fn = std::function<int(vertex_id)>;

  /// Empty state with `thread_count` threads of tag 0.
  threaded_graph(const precedence_graph& g, int thread_count);

  /// Empty state with one thread per entry of `thread_tags`, and the given
  /// vertex-compatibility tag function.
  threaded_graph(const precedence_graph& g, std::vector<int> thread_tags,
                 tag_fn vertex_tag);

  /// The master constructor: as above, but every internal array (state
  /// nodes, slot arrays, closure bitset, scratch) draws from `arena` when
  /// non-null - the run_context hot path, reclaimed wholesale by
  /// arena::reset() between runs. A null arena is the plain-heap baseline;
  /// the two modes are byte-identical in every result (docs/DESIGN.md §8).
  threaded_graph(const precedence_graph& g, std::span<const int> thread_tags,
                 tag_fn vertex_tag, util::arena* arena);

  /// Pre-sizes the state arrays for `expected_vertices` scheduled
  /// operations so a full schedule_all() performs no mid-run growth.
  void reserve_vertices(std::size_t expected_vertices);

  threaded_graph(const threaded_graph&) = default;
  threaded_graph& operator=(const threaded_graph&) = default;
  threaded_graph(threaded_graph&&) noexcept = default;
  threaded_graph& operator=(threaded_graph&&) noexcept = default;

  // -- the online schedule (Definition 3 / Algorithm 1) ----------------

  /// Schedules one operation: select() + commit(). No-op if v is already
  /// scheduled (Definition 3's incremental condition). Throws
  /// infeasible_error when no compatible thread exists.
  void schedule(vertex_id v);

  /// Schedules a whole meta-schedule order.
  void schedule_all(const std::vector<vertex_id>& meta_order);

  /// Finds the online-optimal legal insertion position for v without
  /// mutating the state. Throws infeasible_error if v has no compatible
  /// thread; never fails otherwise (a legal slot always exists - see
  /// docs/DESIGN.md §1). O(K * |V|).
  [[nodiscard]] insert_position select(vertex_id v);

  /// Reference implementation of Definition 5: evaluates every legal
  /// position by speculatively committing on a copy of the state and
  /// recomputing the diameter from scratch. Quadratic per call; used by
  /// the optimality tests and the complexity benchmark.
  [[nodiscard]] insert_position select_naive(vertex_id v) const;

  /// Splices v into the state at `pos` and re-routes cross edges (Figure 2
  /// rules). `pos` must come from select()/select_naive() on the current
  /// state, or from the explicit position helpers below (manual placement
  /// bypasses online optimality but not correctness: an illegal position
  /// is rejected or caught by check_invariants).
  void commit(const insert_position& pos, vertex_id v);

  /// Whether committing `v` at `pos` keeps the state a threaded graph
  /// (no cycle, thread compatible). This is exactly the guard select()
  /// applies to every candidate slot; exposed for manual-placement tools
  /// and the legality tests.
  [[nodiscard]] bool position_legal(vertex_id v, const insert_position& pos);

  /// Explicit position at the head of a thread (after the source sentinel).
  [[nodiscard]] insert_position position_front(int thread) const;

  /// Explicit position immediately after a scheduled vertex, inside that
  /// vertex's thread.
  [[nodiscard]] insert_position position_after(vertex_id v) const;

  // -- thread management ------------------------------------------------

  [[nodiscard]] int thread_count() const noexcept { return k_; }
  [[nodiscard]] int thread_tag(int thread) const;

  /// Appends a new empty thread (e.g. a dedicated wire "unit") and returns
  /// its index. O(K * |V|) re-layout.
  int add_thread(int tag);

  // -- state queries ------------------------------------------------------

  [[nodiscard]] const precedence_graph& source_graph() const noexcept { return *g_; }
  [[nodiscard]] bool scheduled(vertex_id v) const;
  [[nodiscard]] std::size_t scheduled_count() const noexcept { return scheduled_count_; }

  /// Thread that executes v. Throws if v is not scheduled.
  [[nodiscard]] int thread_of(vertex_id v) const;

  /// Scheduled operations of a thread, in thread order.
  [[nodiscard]] std::vector<vertex_id> thread_sequence(int thread) const;

  /// Allocation-free variant for hot loops: clears `out` and fills it with
  /// the thread's operations, reusing the buffer's capacity.
  void thread_sequence(int thread, std::vector<vertex_id>& out) const;

  /// ||S||: the critical-path length of the current state (Definition 1's
  /// diameter). Refreshes labels if needed.
  [[nodiscard]] long long diameter();

  /// Source distance ||-> v|| / sink distance ||v ->|| of a scheduled
  /// vertex in the current state.
  [[nodiscard]] long long source_distance(vertex_id v);
  [[nodiscard]] long long sink_distance(vertex_id v);

  /// ASAP start cycle of every scheduled vertex in the state: start(v) =
  /// ||-> v|| - delay(v). Unscheduled vertices get -1. This is the "hard
  /// decision delayed to the desired stage" - the exact operation -> time
  /// step mapping (Section 3).
  [[nodiscard]] std::vector<long long> asap_start_times();

  /// Reusable-output variant: clears `out` and fills it, reusing capacity.
  void asap_start_times(std::vector<long long>& out);

  /// Reachability in the state: a <=S b (reflexive). Both must be
  /// scheduled. O(K * |V|) breadth-first walk; meant for tests/validation.
  [[nodiscard]] bool state_precedes(vertex_id a, vertex_id b) const;

  /// All state edges (thread-chain + cross) between scheduled operations,
  /// as pairs of source-graph vertex ids. Definition 6's "subgraph of
  /// `this` spanned by V \ s \ t".
  [[nodiscard]] std::vector<std::pair<vertex_id, vertex_id>> state_edges() const;

  /// Allocation-free variant: clears `out` and fills it, reusing capacity.
  void state_edges(std::vector<std::pair<vertex_id, vertex_id>>& out) const;

  /// Structural self-check of every invariant (thread partition, total
  /// order per thread, slot pairing, degree bound, acyclicity, correctness
  /// condition w.r.t. G). Throws graph_error with a description on
  /// violation. Used heavily by the property tests.
  void check_invariants() const;

  /// Cumulative operation counters (see schedule_stats).
  [[nodiscard]] const schedule_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = schedule_stats{}; }

  // -- incremental-maintenance controls ---------------------------------

  /// Toggles the incremental closure sync and dirty-region relabeling.
  /// Disabled, every commit invalidates all labels and every source-graph
  /// change rebuilds the closure from scratch - the pre-incremental
  /// behaviour, kept as the measurable baseline for bench/perf_harness and
  /// as an escape hatch. Results are identical either way; only cost
  /// differs.
  void set_incremental(bool enabled) noexcept { incremental_ = enabled; }

  /// Cross-validates the current (possibly incrementally maintained)
  /// labels against a full label() pass. Returns true iff every sdist and
  /// the tdist of every fresh node (see fresh_) match, and no state edge
  /// leaves the fresh set. The check leaves no trace: its own pass is not
  /// counted in label_passes, and the fresh suffixes are put back, so a
  /// checked run refreshes (and counts) exactly what an unchecked one
  /// does. The equivalence tests call this after every commit; setting
  /// the SOFTSCHED_PARANOID environment variable makes every
  /// commit/closure-sync self-check the same way (and every select check
  /// its legality cuts against the cone BFS) and throw graph_error on
  /// divergence.
  [[nodiscard]] bool labels_match_full_relabel();

private:
  struct node {
    vertex_id gv;         // invalid() for sentinels
    int thread = -1;
    int delay = 0;
    int rank = 0;         // order inside the thread; s = 0, members 1.., t = last
    long long sdist = 0;  // ||-> n|| in the state
    long long tdist = 0;  // ||n ->||
  };

  // Slot accessors into the flattened stride-K adjacency arrays.
  [[nodiscard]] std::int32_t& out_slot(std::int32_t n, int k) { return out_[static_cast<std::size_t>(n) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(k)]; }
  [[nodiscard]] std::int32_t& in_slot(std::int32_t n, int k) { return in_[static_cast<std::size_t>(n) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(k)]; }
  [[nodiscard]] std::int32_t out_slot(std::int32_t n, int k) const { return out_[static_cast<std::size_t>(n) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(k)]; }
  [[nodiscard]] std::int32_t in_slot(std::int32_t n, int k) const { return in_[static_cast<std::size_t>(n) * static_cast<std::size_t>(k_) + static_cast<std::size_t>(k)]; }

  [[nodiscard]] bool is_sentinel(std::int32_t n) const { return !nodes_[static_cast<std::size_t>(n)].gv.valid(); }
  [[nodiscard]] std::int32_t node_of(vertex_id v) const;

  /// forwardLabel + backwardLabel of Algorithm 1: longest-path labels over
  /// the state via one Kahn pass each way; every node becomes fresh.
  /// Throws graph_error if the state is cyclic (only reachable through
  /// deliberately corrupted commits in tests). O(K * |V|).
  void label();

  /// Dirty-region relabeling after commit() spliced node n, whose
  /// successors select() has just refreshed: sdist increases are pushed
  /// forward from n over the whole state, tdist increases backward over
  /// the fresh set only. Sound because every label change a commit can
  /// cause is an *increase* routed through n - the chain/cross edges the
  /// Figure-2 rules drop are implied by at-least-as-long paths, so no
  /// label ever decreases - and because a fresh node reaches n through
  /// fresh nodes alone. Once the backward patch has raised more nodes of
  /// select()'s pred cone than the cone leaves outside, the cone leaves
  /// the fresh set (docs/DESIGN.md §4). Requires labels_valid_ and the
  /// pred cuts of the select() that chose n.
  void incremental_relabel(std::int32_t n);

  /// Whether node n of thread k has an exact tdist: it lies in the fresh
  /// suffix of its thread.
  [[nodiscard]] bool fresh(std::int32_t n, int k) const {
    return nodes_[static_cast<std::size_t>(n)].rank >=
           nodes_[static_cast<std::size_t>(fresh_[static_cast<std::size_t>(k)])].rank;
  }

  /// Makes `target` fresh: recomputes tdist backward from its thread's
  /// first fresh node down to it, extending another thread first where an
  /// out slot lands on one of its stale nodes. Requires labels_valid_.
  void refresh_tdist(std::int32_t target);

  /// Brings <=G up to date with the source graph: no-op when in sync,
  /// otherwise incremental grow_from(), or a full build on first use and
  /// with set_incremental(false). Called once per public entry point (not
  /// per internal stage).
  void refresh_closure();

  // refresh_closure-free bodies; public wrappers refresh once and delegate.
  // trusted_legal marks positions produced by select_impl on the current
  // state (schedule()); only those commits may patch labels in place - a
  // manual commit can be illegal, and invalidation keeps the old
  // cycle-diagnosis path intact.
  [[nodiscard]] insert_position select_impl(vertex_id v);
  void commit_impl(const insert_position& pos, vertex_id v, bool trusted_legal);

  /// The legality of inserting v, as one cut per thread, and v's intrinsic
  /// source/sink distances (Algorithm 1 lines 53-54). The nodes n with
  ///   n <=S p for some scheduled p <G v   (the pred cone)
  /// form a prefix of every thread, ending at scratch_pred_cut_[j]; the
  /// nodes n with
  ///   x <=S n for some scheduled x with v <G x   (the succ cone)
  /// form a suffix, starting at scratch_succ_cut_[j] (docs/DESIGN.md §1).
  /// Also fills scratch_latest_pred_/scratch_earliest_succ_ (per-thread
  /// extremes of the seed sets), so a commit_impl immediately following on
  /// the same state can skip its own closure scan.
  void compute_legality_and_intrinsics(vertex_id v, long long& intrinsic_src,
                                       long long& intrinsic_snk);

  /// Raises seed cuts to the cuts of the seeds' cone: the pred cone along
  /// in slots when Backward, else the succ cone along out slots. Walks the
  /// cone until that costs more than the nodes outside it, then settles
  /// the rest from outside (docs/DESIGN.md §1).
  template <bool Backward>
  void close_cut(util::arena_vector<std::int32_t>& cut);

  /// The SOFTSCHED_PARANOID reference for close_cut: marks the cone node by
  /// node with a BFS from the seeds, reads each thread's cut off the marks
  /// and throws graph_error if one differs from `cut` or a cone is not a
  /// prefix (suffix) of its thread.
  template <bool Backward>
  void check_cut_against_cone_bfs(std::span<const std::int32_t> cut) const;

  /// Ensures u <=S w holds via a direct cross edge or an implied path,
  /// maintaining the one-slot-per-thread pairing invariant (the Figure 2
  /// update rules, generalized to keep out/in slots symmetric).
  void ensure_cross_edge(std::int32_t u, std::int32_t w);

  /// Sizes the per-thread scratch arrays to k_ (constructor, add_thread()).
  void size_per_thread_scratch();

  /// Topological order of the current state into scratch_topo_. Throws
  /// graph_error on a cycle.
  void state_topo_order();

  const precedence_graph* g_;
  tag_fn vertex_tag_;
  util::arena* arena_ = nullptr; ///< backs every container below; null = heap
  util::arena_vector<int> thread_tags_;
  int k_ = 0;

  util::arena_vector<node> nodes_;
  util::arena_vector<std::int32_t> out_; // nodes x K slots, -1 = empty
  util::arena_vector<std::int32_t> in_;
  util::arena_vector<std::int32_t> s_;   // per-thread source sentinel node
  util::arena_vector<std::int32_t> t_;   // per-thread sink sentinel node
  util::arena_vector<std::int32_t> node_index_; // g vertex value -> node or -1
  std::size_t scheduled_count_ = 0;

  std::optional<graph::transitive_closure> closure_;
  graph::graph_cursor closure_cursor_;

  // Per thread, the first node whose tdist is exact. Every later node of
  // the thread is exact too, and no state edge leaves the fresh set, so a
  // stale node's predecessors are stale as well. sdist is exact on every
  // node. Meaningful iff labels_valid_ (docs/DESIGN.md §4).
  util::arena_vector<std::int32_t> fresh_;
  bool labels_valid_ = false;
  bool incremental_ = true;
  long long diameter_cache_ = 0; // max sdist, valid iff labels_valid_; see diameter()
  schedule_stats stats_;

  // Scratch buffers reused across schedule() calls to stay allocation-free
  // in the steady state (Theorem 3's constant factors matter in the
  // complexity benchmark).
  util::arena_vector<std::int32_t> scratch_topo_;
  util::arena_vector<std::int32_t> scratch_degree_;
  util::arena_vector<std::int32_t> scratch_queue_; // relabel worklist, refresh stack
  util::arena_vector<std::uint8_t> scratch_queued_;
  // Per thread, sized k_ by size_per_thread_scratch() and overwritten by
  // every compute_legality_and_intrinsics: the seed extremes, the two
  // legality cuts (a node of that thread; the source sentinel when the
  // pred cone misses the thread, the sink sentinel when the succ cone
  // does) and close_cut's working frontier, which
  // labels_match_full_relabel also uses to put fresh_ back.
  util::arena_vector<std::int32_t> scratch_latest_pred_;
  util::arena_vector<std::int32_t> scratch_earliest_succ_;
  util::arena_vector<std::int32_t> scratch_pred_cut_;
  util::arena_vector<std::int32_t> scratch_succ_cut_;
  util::arena_vector<std::int32_t> scratch_frontier_;
  // Query scratch (state_precedes, labels_match_full_relabel and the
  // paranoid cone BFS are logically const validators; their buffers are
  // cost, not state).
  mutable util::arena_vector<std::uint8_t> scratch_seen_;
  mutable util::arena_vector<std::int32_t> scratch_bfs_;
  util::arena_vector<std::pair<long long, long long>> scratch_labels_;
};

} // namespace softsched::core
