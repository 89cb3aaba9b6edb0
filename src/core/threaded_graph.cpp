#include "core/threaded_graph.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace softsched::core {

namespace {
constexpr std::int32_t no_node = -1;

/// SOFTSCHED_PARANOID in the environment turns every incremental closure
/// sync, dirty-region relabel and select()'s legality cuts into
/// self-checking ones that cross-validate against the from-scratch
/// computation (the cone BFS, for the cuts) and throw on divergence.
/// Meant for tests and bug triage, not production runs.
bool paranoid_checks_enabled() {
  static const bool enabled = std::getenv("SOFTSCHED_PARANOID") != nullptr;
  return enabled;
}
} // namespace

threaded_graph::threaded_graph(const precedence_graph& g, int thread_count)
    : threaded_graph(g, std::vector<int>(static_cast<std::size_t>(thread_count), 0),
                     [](vertex_id) { return 0; }) {}

threaded_graph::threaded_graph(const precedence_graph& g, std::vector<int> thread_tags,
                               tag_fn vertex_tag)
    : threaded_graph(g, std::span<const int>(thread_tags), std::move(vertex_tag),
                     nullptr) {}

threaded_graph::threaded_graph(const precedence_graph& g, std::span<const int> thread_tags,
                               tag_fn vertex_tag, util::arena* arena)
    : g_(&g), vertex_tag_(std::move(vertex_tag)), arena_(arena),
      thread_tags_(thread_tags.begin(), thread_tags.end(), util::arena_allocator<int>(arena)),
      nodes_(util::arena_allocator<node>(arena)),
      out_(util::arena_allocator<std::int32_t>(arena)),
      in_(util::arena_allocator<std::int32_t>(arena)),
      s_(util::arena_allocator<std::int32_t>(arena)),
      t_(util::arena_allocator<std::int32_t>(arena)),
      node_index_(util::arena_allocator<std::int32_t>(arena)),
      fresh_(util::arena_allocator<std::int32_t>(arena)),
      scratch_topo_(util::arena_allocator<std::int32_t>(arena)),
      scratch_degree_(util::arena_allocator<std::int32_t>(arena)),
      scratch_queue_(util::arena_allocator<std::int32_t>(arena)),
      scratch_queued_(util::arena_allocator<std::uint8_t>(arena)),
      scratch_latest_pred_(util::arena_allocator<std::int32_t>(arena)),
      scratch_earliest_succ_(util::arena_allocator<std::int32_t>(arena)),
      scratch_pred_cut_(util::arena_allocator<std::int32_t>(arena)),
      scratch_succ_cut_(util::arena_allocator<std::int32_t>(arena)),
      scratch_frontier_(util::arena_allocator<std::int32_t>(arena)),
      scratch_seen_(util::arena_allocator<std::uint8_t>(arena)),
      scratch_bfs_(util::arena_allocator<std::int32_t>(arena)),
      scratch_labels_(
          util::arena_allocator<std::pair<long long, long long>>(arena)) {
  SOFTSCHED_EXPECT(!thread_tags_.empty(), "a threaded graph needs at least one thread");
  SOFTSCHED_EXPECT(static_cast<bool>(vertex_tag_), "vertex tag function must be callable");
  k_ = static_cast<int>(thread_tags_.size());
  s_.resize(static_cast<std::size_t>(k_));
  t_.resize(static_cast<std::size_t>(k_));
  size_per_thread_scratch();
  // Algorithm 1 constructor (lines 14-21): per thread one source sentinel s[k]
  // linked to one sink sentinel t[k]. Sentinels have zero delay and never
  // carry cross edges.
  for (int k = 0; k < k_; ++k) {
    const auto s = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node{vertex_id::invalid(), k, 0, 0, 0, 0});
    const auto t = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node{vertex_id::invalid(), k, 0, 1, 0, 0});
    out_.insert(out_.end(), 2 * static_cast<std::size_t>(k_), no_node);
    in_.insert(in_.end(), 2 * static_cast<std::size_t>(k_), no_node);
    out_slot(s, k) = t;
    in_slot(t, k) = s;
    s_[static_cast<std::size_t>(k)] = s;
    t_[static_cast<std::size_t>(k)] = t;
  }
  fresh_.assign(s_.begin(), s_.end());
}

void threaded_graph::reserve_vertices(std::size_t expected_vertices) {
  const std::size_t count = nodes_.size() + expected_vertices;
  nodes_.reserve(count);
  out_.reserve(count * static_cast<std::size_t>(k_));
  in_.reserve(count * static_cast<std::size_t>(k_));
  node_index_.reserve(g_->vertex_count());
}

std::int32_t threaded_graph::node_of(vertex_id v) const {
  if (!v.valid() || v.value() >= node_index_.size()) return no_node;
  return node_index_[v.value()];
}

bool threaded_graph::scheduled(vertex_id v) const { return node_of(v) != no_node; }

int threaded_graph::thread_of(vertex_id v) const {
  const std::int32_t n = node_of(v);
  SOFTSCHED_EXPECT(n != no_node, "vertex is not scheduled");
  return nodes_[static_cast<std::size_t>(n)].thread;
}

int threaded_graph::thread_tag(int thread) const {
  SOFTSCHED_EXPECT(thread >= 0 && thread < k_, "thread index out of range");
  return thread_tags_[static_cast<std::size_t>(thread)];
}

std::vector<vertex_id> threaded_graph::thread_sequence(int thread) const {
  std::vector<vertex_id> seq;
  thread_sequence(thread, seq);
  return seq;
}

void threaded_graph::thread_sequence(int thread, std::vector<vertex_id>& out) const {
  SOFTSCHED_EXPECT(thread >= 0 && thread < k_, "thread index out of range");
  out.clear();
  for (std::int32_t cur = out_slot(s_[static_cast<std::size_t>(thread)], thread);
       cur != t_[static_cast<std::size_t>(thread)]; cur = out_slot(cur, thread)) {
    out.push_back(nodes_[static_cast<std::size_t>(cur)].gv);
  }
}

int threaded_graph::add_thread(int tag) {
  const int old_k = k_;
  const int new_k = k_ + 1;
  const std::size_t count = nodes_.size();
  // Re-layout both slot arrays to the wider stride (same backing arena).
  util::arena_vector<std::int32_t> new_out(count * static_cast<std::size_t>(new_k),
                                           no_node, out_.get_allocator());
  util::arena_vector<std::int32_t> new_in(count * static_cast<std::size_t>(new_k),
                                          no_node, in_.get_allocator());
  for (std::size_t n = 0; n < count; ++n) {
    for (int k = 0; k < old_k; ++k) {
      new_out[n * static_cast<std::size_t>(new_k) + static_cast<std::size_t>(k)] =
          out_[n * static_cast<std::size_t>(old_k) + static_cast<std::size_t>(k)];
      new_in[n * static_cast<std::size_t>(new_k) + static_cast<std::size_t>(k)] =
          in_[n * static_cast<std::size_t>(old_k) + static_cast<std::size_t>(k)];
    }
  }
  out_ = std::move(new_out);
  in_ = std::move(new_in);
  k_ = new_k;
  thread_tags_.push_back(tag);

  const int k = new_k - 1;
  const auto s = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node{vertex_id::invalid(), k, 0, 0, 0, 0});
  const auto t = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node{vertex_id::invalid(), k, 0, 1, 0, 0});
  out_.insert(out_.end(), 2 * static_cast<std::size_t>(new_k), no_node);
  in_.insert(in_.end(), 2 * static_cast<std::size_t>(new_k), no_node);
  out_slot(s, k) = t;
  in_slot(t, k) = s;
  s_.push_back(s);
  t_.push_back(t);
  fresh_.push_back(s);
  size_per_thread_scratch();
  // The new sentinels are born with their exact labels (sdist = tdist = 0
  // on an empty thread, which starts fresh) and nothing else moves, so
  // labels_valid_ survives.
  return k;
}

void threaded_graph::size_per_thread_scratch() {
  // resize() grows geometrically, so a session adding wire threads one by
  // one leaves O(K) dead arena bytes behind, not O(K^2).
  for (auto* per_thread : {&scratch_latest_pred_, &scratch_earliest_succ_, &scratch_pred_cut_,
                           &scratch_succ_cut_, &scratch_frontier_})
    per_thread->resize(static_cast<std::size_t>(k_), no_node);
}

void threaded_graph::refresh_closure() {
  const graph::graph_cursor now = g_->cursor();
  if (closure_ && closure_cursor_ == now) return;
  if (closure_ && incremental_) {
    // The source graph only grows: replay what it gained instead of
    // rebuilding the whole O(V*E/64) bitset.
    stats_.closure_rows_touched += closure_->grow_from(*g_, closure_cursor_);
    ++stats_.closure_syncs;
    if (paranoid_checks_enabled() &&
        !closure_->equals(graph::transitive_closure(*g_)))
      throw graph_error("paranoid: incremental closure diverged from a rebuild");
    return;
  }
  if (closure_)
    closure_->rebuild(*g_); // reuses the bitset storage; validates acyclicity
  else
    closure_.emplace(*g_, arena_);
  closure_cursor_ = now;
  ++stats_.closure_rebuilds;
}

void threaded_graph::state_topo_order() {
  const std::size_t count = nodes_.size();
  scratch_degree_.assign(count, 0);
  for (std::size_t n = 0; n < count; ++n) {
    for (int k = 0; k < k_; ++k) {
      if (in_slot(static_cast<std::int32_t>(n), k) != no_node)
        ++scratch_degree_[n];
    }
  }
  scratch_topo_.clear();
  scratch_topo_.reserve(count);
  for (std::size_t n = 0; n < count; ++n)
    if (scratch_degree_[n] == 0) scratch_topo_.push_back(static_cast<std::int32_t>(n));
  for (std::size_t head = 0; head < scratch_topo_.size(); ++head) {
    const std::int32_t u = scratch_topo_[head];
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = out_slot(u, k);
      if (w != no_node && --scratch_degree_[static_cast<std::size_t>(w)] == 0)
        scratch_topo_.push_back(w);
    }
  }
  if (scratch_topo_.size() != count)
    throw graph_error("threaded graph state contains a cycle");
}

void threaded_graph::label() {
  if (labels_valid_) return;
  ++stats_.label_passes;
  state_topo_order();
  // forwardLabel (line 44): sdist = max over predecessors + own delay.
  for (const std::int32_t n : scratch_topo_) {
    long long best = 0;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t p = in_slot(n, k);
      if (p != no_node) best = std::max(best, nodes_[static_cast<std::size_t>(p)].sdist);
    }
    nodes_[static_cast<std::size_t>(n)].sdist = best + nodes_[static_cast<std::size_t>(n)].delay;
  }
  // backwardLabel (line 45).
  for (auto it = scratch_topo_.rbegin(); it != scratch_topo_.rend(); ++it) {
    long long best = 0;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t q = out_slot(*it, k);
      if (q != no_node) best = std::max(best, nodes_[static_cast<std::size_t>(q)].tdist);
    }
    nodes_[static_cast<std::size_t>(*it)].tdist = best + nodes_[static_cast<std::size_t>(*it)].delay;
  }
  // The longest path ends at the node with the largest sdist.
  diameter_cache_ = 0;
  for (const node& nd : nodes_) diameter_cache_ = std::max(diameter_cache_, nd.sdist);
  std::copy(s_.begin(), s_.end(), fresh_.begin());
  labels_valid_ = true;
}

void threaded_graph::incremental_relabel(std::int32_t n) {
  const std::size_t count = nodes_.size();
  // Seed: the spliced node's labels from its (unchanged) neighbours. Its
  // successors are fresh - its thread successor and succ-seed extremes are
  // what select() just read - so n joins the fresh set with an exact tdist.
  {
    node& nd = nodes_[static_cast<std::size_t>(n)];
    auto& first_fresh = fresh_[static_cast<std::size_t>(nd.thread)];
    if (first_fresh == out_slot(n, nd.thread)) first_fresh = n;
    long long src = 0;
    long long snk = 0;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t p = in_slot(n, k);
      if (p != no_node) src = std::max(src, nodes_[static_cast<std::size_t>(p)].sdist);
      const std::int32_t q = out_slot(n, k);
      if (q == no_node) continue;
      SOFTSCHED_EXPECT(fresh(q, k), "commit: a successor of the new node is stale");
      snk = std::max(snk, nodes_[static_cast<std::size_t>(q)].tdist);
    }
    nd.sdist = src + nd.delay;
    nd.tdist = snk + nd.delay;
    diameter_cache_ = std::max(diameter_cache_, nd.sdist);
  }
  ++stats_.nodes_relabeled;

  // Forward cone: push sdist increases along out slots. Every label change
  // a commit causes is an increase through n, so max-propagation from n is
  // exact (docs/DESIGN.md §4). Only select()-produced positions reach this
  // code, so the state stays acyclic; as defense in depth, a cycle (which
  // would necessarily pass through n - all new edges are incident to it)
  // is still detected when propagation laps back into n, and demotes to
  // invalidated labels so the next label() reports it.
  // The queued flags are self-cleaning (every dequeue unsets its flag), so
  // the array only needs to cover the new node - no O(n) clear per commit.
  if (scratch_queued_.size() < count) scratch_queued_.resize(count, 0);
  scratch_queue_.clear();
  scratch_queue_.push_back(n);
  scratch_queued_[static_cast<std::size_t>(n)] = 1;
  for (std::size_t head = 0; head < scratch_queue_.size(); ++head) {
    const std::int32_t u = scratch_queue_[head];
    scratch_queued_[static_cast<std::size_t>(u)] = 0;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = out_slot(u, k);
      if (w == no_node) continue;
      if (w == n && u != n) { // every queued u is downstream of n: a cycle
        for (std::size_t i = head; i < scratch_queue_.size(); ++i)
          scratch_queued_[static_cast<std::size_t>(scratch_queue_[i])] = 0;
        labels_valid_ = false;
        return;
      }
      node& wd = nodes_[static_cast<std::size_t>(w)];
      const long long cand = nodes_[static_cast<std::size_t>(u)].sdist + wd.delay;
      if (cand <= wd.sdist) continue;
      wd.sdist = cand;
      diameter_cache_ = std::max(diameter_cache_, wd.sdist);
      ++stats_.nodes_relabeled;
      if (!scratch_queued_[static_cast<std::size_t>(w)]) {
        scratch_queued_[static_cast<std::size_t>(w)] = 1;
        scratch_queue_.push_back(w);
      }
    }
  }

  // Backward cone: tdist increases along in slots, over fresh nodes only:
  // a stale node's predecessors are stale too. The raises inside
  // select()'s pred cone may number at most the members the cone leaves
  // outside, the budget close_cut keeps. Past it, the cone leaves the
  // fresh set: it is closed under predecessors and no commit edge enters
  // it, so the rest stays closed under successors. The forward loop left
  // every flag unset again, so the array is ready as-is.
  const auto cut_rank = [this](int k) {
    return nodes_[static_cast<std::size_t>(scratch_pred_cut_[static_cast<std::size_t>(k)])].rank;
  };
  long long outside = 0;
  for (int j = 0; j < k_; ++j)
    outside += nodes_[static_cast<std::size_t>(t_[static_cast<std::size_t>(j)])].rank - 1 -
               cut_rank(j);
  bool cone_fresh = true;
  scratch_queue_.clear();
  scratch_queue_.push_back(n);
  scratch_queued_[static_cast<std::size_t>(n)] = 1;
  for (std::size_t head = 0; head < scratch_queue_.size(); ++head) {
    const std::int32_t u = scratch_queue_[head];
    scratch_queued_[static_cast<std::size_t>(u)] = 0;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t p = in_slot(u, k);
      if (p == no_node) continue;
      if (p == n && u != n) { // every queued u is upstream of n: a cycle
        for (std::size_t i = head; i < scratch_queue_.size(); ++i)
          scratch_queued_[static_cast<std::size_t>(scratch_queue_[i])] = 0;
        labels_valid_ = false;
        return;
      }
      node& pd = nodes_[static_cast<std::size_t>(p)];
      const long long cand = nodes_[static_cast<std::size_t>(u)].tdist + pd.delay;
      if (cand <= pd.tdist || !fresh(p, k)) continue;
      if (cone_fresh && pd.rank <= cut_rank(k) && --outside < 0) {
        for (int j = 0; j < k_; ++j) {
          auto& first_fresh = fresh_[static_cast<std::size_t>(j)];
          if (nodes_[static_cast<std::size_t>(first_fresh)].rank <= cut_rank(j))
            first_fresh = out_slot(scratch_pred_cut_[static_cast<std::size_t>(j)], j);
        }
        cone_fresh = false;
        continue; // p is in the cone, stale now
      }
      pd.tdist = cand;
      ++stats_.nodes_relabeled;
      if (!scratch_queued_[static_cast<std::size_t>(p)]) {
        scratch_queued_[static_cast<std::size_t>(p)] = 1;
        scratch_queue_.push_back(p);
      }
    }
  }
}

void threaded_graph::refresh_tdist(std::int32_t target) {
  if (fresh(target, nodes_[static_cast<std::size_t>(target)].thread)) return;
  // goals holds one node per thread at most: a blocker is a successor of
  // the node waiting on it, so a thread already on the stack would close a
  // cycle (docs/DESIGN.md §4).
  auto& goals = scratch_queue_;
  goals.clear();
  goals.push_back(target);
  while (!goals.empty()) {
    const std::int32_t goal = goals.back();
    const int j = nodes_[static_cast<std::size_t>(goal)].thread;
    auto& first_fresh = fresh_[static_cast<std::size_t>(j)];
    if (fresh(goal, j)) {
      goals.pop_back();
      continue;
    }
    const std::int32_t n = in_slot(first_fresh, j);
    long long best = 0;
    std::int32_t blocker = no_node;
    for (int k = 0; k < k_ && blocker == no_node; ++k) {
      const std::int32_t w = out_slot(n, k);
      if (w == no_node) continue;
      if (fresh(w, k))
        best = std::max(best, nodes_[static_cast<std::size_t>(w)].tdist);
      else
        blocker = w;
    }
    if (blocker != no_node) {
      goals.push_back(blocker);
      continue;
    }
    nodes_[static_cast<std::size_t>(n)].tdist = best + nodes_[static_cast<std::size_t>(n)].delay;
    first_fresh = n;
    ++stats_.nodes_relabeled;
  }
}

bool threaded_graph::labels_match_full_relabel() {
  label(); // materialize the (possibly incrementally maintained) labels
  scratch_labels_.clear();
  scratch_labels_.reserve(nodes_.size());
  for (const node& nd : nodes_) scratch_labels_.emplace_back(nd.sdist, nd.tdist);
  std::copy(fresh_.begin(), fresh_.end(), scratch_frontier_.begin());
  labels_valid_ = false;
  label(); // full pass; also repairs the labels on divergence
  --stats_.label_passes; // the check's own pass is not the run's
  std::copy(scratch_frontier_.begin(), scratch_frontier_.end(), fresh_.begin());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto n = static_cast<std::int32_t>(i);
    if (!fresh(n, nodes_[i].thread)) {
      if (scratch_labels_[i].first != nodes_[i].sdist) return false;
      continue;
    }
    if (scratch_labels_[i] != std::make_pair(nodes_[i].sdist, nodes_[i].tdist)) return false;
    for (int k = 0; k < k_; ++k)
      if (const std::int32_t w = out_slot(n, k); w != no_node && !fresh(w, k)) return false;
  }
  return true;
}

void threaded_graph::compute_legality_and_intrinsics(vertex_id v, long long& intrinsic_src,
                                                     long long& intrinsic_snk) {
  label();
  const std::size_t count = nodes_.size();
  intrinsic_src = 0;
  intrinsic_snk = 0;
  // Seeds: scheduled transitive successors/predecessors of v in G
  // (Algorithm 1 lines 53-54 compute the intrinsic distances over exactly
  // these sets), reduced to the per-thread extremes in one pass over the
  // state - within a thread every other seed is implied through the chain,
  // and sdist/tdist are monotone along it, so the extremes also carry the
  // intrinsic distances. Two closure bit tests per scheduled node; both
  // hit v's own row or the node's row head, which stay cached.
  std::fill(scratch_latest_pred_.begin(), scratch_latest_pred_.end(), no_node);
  std::fill(scratch_earliest_succ_.begin(), scratch_earliest_succ_.end(), no_node);
  for (std::size_t n = 0; n < count; ++n) {
    const vertex_id gv = nodes_[n].gv;
    if (!gv.valid()) continue;
    const auto j = static_cast<std::size_t>(nodes_[n].thread);
    if (closure_->strictly_reaches(v, gv)) {
      if (scratch_earliest_succ_[j] == no_node ||
          nodes_[n].rank <
              nodes_[static_cast<std::size_t>(scratch_earliest_succ_[j])].rank)
        scratch_earliest_succ_[j] = static_cast<std::int32_t>(n);
    } else if (closure_->strictly_reaches(gv, v)) {
      if (scratch_latest_pred_[j] == no_node ||
          nodes_[n].rank > nodes_[static_cast<std::size_t>(scratch_latest_pred_[j])].rank)
        scratch_latest_pred_[j] = static_cast<std::int32_t>(n);
    }
  }
  // The cones of the seed sets, one cut per thread: each cone is the
  // closure of its per-thread extremes (every other seed is implied
  // through its thread chain).
  std::copy(s_.begin(), s_.end(), scratch_pred_cut_.begin());
  std::copy(t_.begin(), t_.end(), scratch_succ_cut_.begin());
  for (std::size_t j = 0; j < static_cast<std::size_t>(k_); ++j) {
    if (const std::int32_t p = scratch_latest_pred_[j]; p != no_node) {
      scratch_pred_cut_[j] = p;
      intrinsic_src = std::max(intrinsic_src, nodes_[static_cast<std::size_t>(p)].sdist);
    }
    if (const std::int32_t x = scratch_earliest_succ_[j]; x != no_node) {
      scratch_succ_cut_[j] = x;
      refresh_tdist(x);
      intrinsic_snk = std::max(intrinsic_snk, nodes_[static_cast<std::size_t>(x)].tdist);
    }
  }
  close_cut<true>(scratch_pred_cut_);
  close_cut<false>(scratch_succ_cut_);
  if (paranoid_checks_enabled()) {
    check_cut_against_cone_bfs<true>(scratch_pred_cut_);
    check_cut_against_cone_bfs<false>(scratch_succ_cut_);
  }
}

// The pred cone (Backward) grows from its seeds along in slots, the succ
// cone along out slots. Both are seen from the thread end the cone grows
// toward - "home": the source sentinel for the pred cone, the sink
// sentinel for the succ cone - and depth(n) is n's distance from home in
// thread order. In every thread the cone holds the nodes from home to the
// cut (docs/DESIGN.md §1). The cuts come in as the seed extremes (or
// home): cone members, so a sound lower bound.
template <bool Backward>
void threaded_graph::close_cut(util::arena_vector<std::int32_t>& cut) {
  const auto grow = [this](std::int32_t n, int k) {
    return Backward ? in_slot(n, k) : out_slot(n, k);
  };
  const auto shrink = [this](std::int32_t n, int k) {
    return Backward ? out_slot(n, k) : in_slot(n, k);
  };
  const auto depth = [this](std::int32_t n) {
    const int rank = nodes_[static_cast<std::size_t>(n)].rank;
    return Backward ? rank : -rank;
  };
  const util::arena_vector<std::int32_t>& home = Backward ? s_ : t_;
  const util::arena_vector<std::int32_t>& far = Backward ? t_ : s_;
  auto& frontier = scratch_frontier_;
  const auto at = [](auto& per_thread, int j) -> auto& {
    return per_thread[static_cast<std::size_t>(j)];
  };

  // Inside: walk every cone member once, from each cut toward home, and
  // deepen the cut of each thread a grow slot lands past. frontier[j] is
  // the node the walk of thread j has reached. The walk stops once it has
  // cost more nodes than the cone leaves outside.
  long long outside = 0;
  for (int j = 0; j < k_; ++j) {
    const int members = nodes_[static_cast<std::size_t>(at(t_, j))].rank - 1;
    outside += members - (depth(at(cut, j)) - depth(at(home, j)));
  }
  std::copy(home.begin(), home.end(), frontier.begin());
  long long walked = 0;
  bool closed = true;
  for (int j = 0, idle = 0; closed && idle < k_; j = j + 1 == k_ ? 0 : j + 1) {
    const std::int32_t stop = at(frontier, j);
    if (stop == at(cut, j)) {
      ++idle;
      continue;
    }
    idle = 0;
    at(frontier, j) = at(cut, j);
    // Only the chain slot of a thread-j node lands in thread j, and it
    // points home, so cut[j] holds still during this walk.
    for (std::int32_t n = at(cut, j); n != stop; n = grow(n, j)) {
      if (++walked > outside) {
        closed = false;
        break;
      }
      for (int k = 0; k < k_; ++k) {
        const std::int32_t w = grow(n, k);
        if (w == no_node || depth(w) <= depth(at(cut, k))) continue;
        outside -= depth(w) - depth(at(cut, k));
        at(cut, k) = w;
      }
    }
  }
  if (closed) return;

  // Outside: settle the remaining nodes from the far end of every thread
  // toward home. A node is in the cone iff one of its shrink slots (its
  // own chain slot included) lands in the cone. frontier[j] is the deepest
  // unsettled node of thread j; every deeper one is settled outside. A
  // node is decided as soon as one shrink slot lands within a cut (in), or
  // once all of them land past a frontier (out). A slot landing between a
  // cut and a frontier blocks the node, and that slot's thread is settled
  // first: the state is acyclic, so following blockers reaches a decidable
  // node within K steps. The cuts only ever hold cone members, so every
  // decision is exact.
  for (int j = 0; j < k_; ++j) at(frontier, j) = grow(at(far, j), j);
  const auto settled = [&](int j) { return depth(at(frontier, j)) <= depth(at(cut, j)); };
  int unsettled = 0;
  for (int j = -1;;) {
    if (j < 0 || settled(j)) {
      while (unsettled < k_ && settled(unsettled)) ++unsettled;
      if (unsettled == k_) return;
      j = unsettled;
    }
    const std::int32_t n = at(frontier, j);
    bool in_cone = false;
    int blocker = -1;
    for (int k = 0; k < k_ && !in_cone; ++k) {
      const std::int32_t w = shrink(n, k);
      if (w == no_node) continue;
      if (depth(w) <= depth(at(cut, k)))
        in_cone = true;
      else if (depth(w) <= depth(at(frontier, k)))
        blocker = k;
    }
    if (in_cone)
      at(cut, j) = n; // the thread from home to n follows through the chain
    else if (blocker >= 0)
      j = blocker;
    else
      at(frontier, j) = grow(n, j);
  }
}

template <bool Backward>
void threaded_graph::check_cut_against_cone_bfs(std::span<const std::int32_t> cut) const {
  const auto grow = [this](std::int32_t n, int k) {
    return Backward ? in_slot(n, k) : out_slot(n, k);
  };
  const auto shrink = [this](std::int32_t n, int k) {
    return Backward ? out_slot(n, k) : in_slot(n, k);
  };
  const util::arena_vector<std::int32_t>& seeds =
      Backward ? scratch_latest_pred_ : scratch_earliest_succ_;
  const util::arena_vector<std::int32_t>& home = Backward ? s_ : t_;
  const util::arena_vector<std::int32_t>& far = Backward ? t_ : s_;
  auto& seen = scratch_seen_;
  auto& queue = scratch_bfs_;
  seen.assign(nodes_.size(), 0);
  queue.clear();
  for (const std::int32_t n : seeds) {
    if (n == no_node) continue;
    seen[static_cast<std::size_t>(n)] = 1;
    queue.push_back(n);
  }
  while (!queue.empty()) {
    const std::int32_t u = queue.back();
    queue.pop_back();
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = grow(u, k);
      if (w == no_node || seen[static_cast<std::size_t>(w)]) continue;
      seen[static_cast<std::size_t>(w)] = 1;
      queue.push_back(w);
    }
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(k_); ++j) {
    std::int32_t last = home[j];
    bool left_cone = false;
    for (std::int32_t n = shrink(home[j], static_cast<int>(j)); n != far[j];
         n = shrink(n, static_cast<int>(j))) {
      if (!seen[static_cast<std::size_t>(n)]) {
        left_cone = true;
      } else if (left_cone) {
        throw graph_error("paranoid: a legality cone is not a prefix or suffix of thread " +
                          std::to_string(j));
      } else {
        last = n;
      }
    }
    if (last != cut[j])
      throw graph_error(std::string("paranoid: the ") + (Backward ? "pred" : "succ") +
                        " cut of thread " + std::to_string(j) +
                        " diverged from the cone BFS");
  }
}

insert_position threaded_graph::select(vertex_id v) {
  refresh_closure();
  return select_impl(v);
}

insert_position threaded_graph::select_impl(vertex_id v) {
  g_->require_vertex(v);
  SOFTSCHED_EXPECT(!scheduled(v), "select: vertex is already scheduled");
  ++stats_.select_calls;

  long long intrinsic_src = 0;
  long long intrinsic_snk = 0;
  compute_legality_and_intrinsics(v, intrinsic_src, intrinsic_snk);

  const int vtag = vertex_tag_(v);
  const long long dv = g_->delay(v);
  insert_position best;
  long long best_cost = std::numeric_limits<long long>::max();
  bool any_compatible = false;

  // Dominance prune: sdist is monotone along a thread, so once even the
  // optimistic bound sdist(cur) + dv + intrinsic_snk reaches the incumbent
  // cost, no later position in the thread can beat it (and ties never
  // displace the incumbent - select keeps the first minimum). The chosen
  // position is exactly the unpruned scan's.
  const auto pruned = [&](std::int32_t cur) {
    return nodes_[static_cast<std::size_t>(cur)].sdist + dv + intrinsic_snk >= best_cost;
  };
  const auto positions_before = [this](std::int32_t n) {
    return static_cast<std::uint64_t>(nodes_[static_cast<std::size_t>(n)].rank);
  };
  for (int k = 0; k < k_; ++k) {
    if (thread_tags_[static_cast<std::size_t>(k)] != vtag) continue;
    any_compatible = true;
    // The legal positions of thread k run from the pred cut up to, not
    // including, the succ cut (docs/DESIGN.md §1). positions_rejected
    // counts what a scan from the source sentinel would reject: every
    // position before the pred cut until the prune ends the thread, and
    // the succ cut itself when the scan gets there.
    const std::int32_t first = scratch_pred_cut_[static_cast<std::size_t>(k)];
    const std::int32_t stop = scratch_succ_cut_[static_cast<std::size_t>(k)];
    if (pruned(first)) { // then it fires before the cut too, from some point on
      std::int32_t cur = s_[static_cast<std::size_t>(k)];
      while (!pruned(cur)) cur = out_slot(cur, k);
      stats_.positions_rejected += positions_before(cur);
      continue;
    }
    stats_.positions_rejected += positions_before(first);
    refresh_tdist(out_slot(first, k)); // every tdist the scan reads lies from here on
    std::int32_t cur = first;
    for (; cur != stop && !pruned(cur); cur = out_slot(cur, k)) {
      const std::int32_t next = out_slot(cur, k);
      ++stats_.positions_scanned;
      // Lemma 5: the distance through v at this position (line 57-59).
      const long long cost =
          std::max(nodes_[static_cast<std::size_t>(cur)].sdist, intrinsic_src) + dv +
          std::max(nodes_[static_cast<std::size_t>(next)].tdist, intrinsic_snk);
      if (cost < best_cost) {
        best = insert_position{k, cur, cost};
        best_cost = cost;
      }
    }
    if (cur == stop && stop != t_[static_cast<std::size_t>(k)]) ++stats_.positions_rejected;
  }
  if (!any_compatible)
    throw infeasible_error("no thread is compatible with vertex '" +
                           std::string(g_->name(v)) + "'");
  // A legal slot always exists in every compatible thread (docs/DESIGN.md §1:
  // the two illegality predicates are monotone in opposite directions and
  // cannot cover a whole thread without implying a cycle among already
  // scheduled vertices).
  SOFTSCHED_EXPECT(best.valid(), "threaded schedule invariant violated: no legal position");
  return best;
}

insert_position threaded_graph::select_naive(vertex_id v) const {
  // Definition 5 evaluated literally: speculatively commit at every legal
  // position and measure the resulting diameter.
  threaded_graph base(*this);
  base.g_->require_vertex(v);
  SOFTSCHED_EXPECT(!base.scheduled(v), "select_naive: vertex is already scheduled");
  base.refresh_closure();
  long long intrinsic_src = 0;
  long long intrinsic_snk = 0;
  base.compute_legality_and_intrinsics(v, intrinsic_src, intrinsic_snk);

  const int vtag = base.vertex_tag_(v);
  insert_position best;
  long long best_diameter = std::numeric_limits<long long>::max();
  bool any_compatible = false;

  for (int k = 0; k < base.k_; ++k) {
    if (base.thread_tags_[static_cast<std::size_t>(k)] != vtag) continue;
    any_compatible = true;
    // Every legal position: from the pred cut up to the succ cut.
    for (std::int32_t cur = base.scratch_pred_cut_[static_cast<std::size_t>(k)];
         cur != base.scratch_succ_cut_[static_cast<std::size_t>(k)];
         cur = base.out_slot(cur, k)) {
      threaded_graph speculative(base);
      speculative.commit(insert_position{k, cur, 0}, v);
      const long long diam = speculative.diameter();
      if (diam < best_diameter) {
        best = insert_position{k, cur, diam};
        best_diameter = diam;
      }
    }
  }
  if (!any_compatible)
    throw infeasible_error("no thread is compatible with vertex '" +
                           std::string(base.g_->name(v)) + "'");
  SOFTSCHED_EXPECT(best.valid(), "select_naive: no legal position");
  return best;
}

void threaded_graph::ensure_cross_edge(std::int32_t u, std::int32_t w) {
  const int j = nodes_[static_cast<std::size_t>(u)].thread;
  const int k = nodes_[static_cast<std::size_t>(w)].thread;
  SOFTSCHED_EXPECT(j != k, "cross edges join distinct threads");

  // Figure 2 (a): u already points at-or-before w in thread k; implied.
  const std::int32_t uo = out_slot(u, k);
  if (uo != no_node &&
      nodes_[static_cast<std::size_t>(uo)].rank <= nodes_[static_cast<std::size_t>(w)].rank)
    return;

  // A later thread-j vertex already precedes w: u <=S wi <=S w; implied.
  const std::int32_t wi = in_slot(w, j);
  if (wi != no_node &&
      nodes_[static_cast<std::size_t>(wi)].rank >= nodes_[static_cast<std::size_t>(u)].rank)
    return;

  // Figure 2 (c): u points after w; that relation becomes implied through
  // w's thread chain once u -> w exists, so drop it.
  if (uo != no_node) {
    SOFTSCHED_EXPECT(in_slot(uo, j) == u, "slot pairing invariant broken (out)");
    in_slot(uo, j) = no_node;
    out_slot(u, k) = no_node;
  }
  // Figure 2 (f) mirror: an earlier thread-j vertex pointed at w; implied
  // through u's thread chain once u -> w exists.
  if (wi != no_node) {
    SOFTSCHED_EXPECT(out_slot(wi, k) == w, "slot pairing invariant broken (in)");
    out_slot(wi, k) = no_node;
    in_slot(w, j) = no_node;
  }
  // Figure 2 (b)/(e): add the edge.
  ++stats_.cross_edge_updates;
  out_slot(u, k) = w;
  in_slot(w, j) = u;
}

void threaded_graph::commit(const insert_position& pos, vertex_id v) {
  refresh_closure();
  commit_impl(pos, v, /*trusted_legal=*/false);
}

void threaded_graph::commit_impl(const insert_position& pos, vertex_id v,
                                 bool trusted_legal) {
  g_->require_vertex(v);
  SOFTSCHED_EXPECT(!scheduled(v), "commit: vertex is already scheduled");
  SOFTSCHED_EXPECT(pos.valid() && pos.thread < k_, "commit: invalid position");
  SOFTSCHED_EXPECT(thread_tags_[static_cast<std::size_t>(pos.thread)] == vertex_tag_(v),
                   "commit: thread is not compatible with the vertex");
  // Whether the labels can be patched in place afterwards instead of
  // invalidated: they must be exact now, incremental mode on, and the
  // position must come from select() (trusted_legal). A *manual* commit may
  // be illegal and close a cycle; invalidating keeps the documented
  // diagnosis path - the next label() throws on any cycle, including
  // zero-weight ones the patch worklist's lap detector cannot see.
  const bool patch_labels = labels_valid_ && incremental_ && trusted_legal;

  ++stats_.commits;
  const int k = pos.thread;
  const std::int32_t after = pos.after;
  SOFTSCHED_EXPECT(after >= 0 && static_cast<std::size_t>(after) < nodes_.size() &&
                       nodes_[static_cast<std::size_t>(after)].thread == k &&
                       out_slot(after, k) != no_node,
                   "commit: position is not an insertion point of the thread");

  // Create the state node for v.
  const auto n = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node{v, k, g_->delay(v), 0, 0, 0});
  out_.insert(out_.end(), static_cast<std::size_t>(k_), no_node);
  in_.insert(in_.end(), static_cast<std::size_t>(k_), no_node);
  if (node_index_.size() < g_->vertex_count()) node_index_.resize(g_->vertex_count(), no_node);
  node_index_[v.value()] = n;
  ++scheduled_count_;

  // Algorithm 1 lines 26-27: splice into the thread chain.
  const std::int32_t next = out_slot(after, k);
  out_slot(after, k) = n;
  in_slot(n, k) = after;
  out_slot(n, k) = next;
  in_slot(next, k) = n;
  // Only the ranks from n to the sink sentinel shift.
  for (std::int32_t cur = n, rank = nodes_[static_cast<std::size_t>(after)].rank + 1;
       cur != no_node; cur = out_slot(cur, k))
    nodes_[static_cast<std::size_t>(cur)].rank = rank++;

  // Lines 28-41: re-route cross edges. Only the *latest* scheduled
  // G-predecessor per thread (and the earliest successor) can carry a
  // non-implied edge; all other relations follow through that thread's
  // chain. On the schedule() path select_impl's legality scan already
  // computed the per-thread extremes on this very state (the splice cannot
  // change other nodes' thread or rank order); recompute for manual
  // commits, and in from-scratch mode for baseline fidelity.
  if (!trusted_legal || !incremental_) {
    std::fill(scratch_latest_pred_.begin(), scratch_latest_pred_.end(), no_node);
    std::fill(scratch_earliest_succ_.begin(), scratch_earliest_succ_.end(), no_node);
    closure_->for_each_strictly_reachable(v, [&](vertex_id gw) {
      const std::int32_t w = node_of(gw);
      if (w == no_node || w == n) return;
      const auto j = static_cast<std::size_t>(nodes_[static_cast<std::size_t>(w)].thread);
      if (scratch_earliest_succ_[j] == no_node ||
          nodes_[static_cast<std::size_t>(w)].rank <
              nodes_[static_cast<std::size_t>(scratch_earliest_succ_[j])].rank)
        scratch_earliest_succ_[j] = w;
    });
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const vertex_id gv = nodes_[i].gv;
      if (!gv.valid() || static_cast<std::int32_t>(i) == n) continue;
      if (closure_->strictly_reaches(gv, v)) {
        const auto j = static_cast<std::size_t>(nodes_[i].thread);
        if (scratch_latest_pred_[j] == no_node ||
            nodes_[i].rank > nodes_[static_cast<std::size_t>(scratch_latest_pred_[j])].rank)
          scratch_latest_pred_[j] = static_cast<std::int32_t>(i);
      }
    }
  }
  for (int j = 0; j < k_; ++j) {
    const std::int32_t p = scratch_latest_pred_[static_cast<std::size_t>(j)];
    if (p == no_node) continue;
    if (j == k) {
      // Same thread: the chain orders them; legality guaranteed p < v.
      SOFTSCHED_EXPECT(nodes_[static_cast<std::size_t>(p)].rank <
                           nodes_[static_cast<std::size_t>(n)].rank,
                       "commit: illegal position, a predecessor follows the slot");
    } else {
      ensure_cross_edge(p, n);
    }
  }
  for (int j = 0; j < k_; ++j) {
    const std::int32_t q = scratch_earliest_succ_[static_cast<std::size_t>(j)];
    if (q == no_node) continue;
    if (j == k) {
      SOFTSCHED_EXPECT(nodes_[static_cast<std::size_t>(q)].rank >
                           nodes_[static_cast<std::size_t>(n)].rank,
                       "commit: illegal position, a successor precedes the slot");
    } else {
      ensure_cross_edge(n, q);
    }
  }
  if (patch_labels) {
    incremental_relabel(n); // resets labels_valid_ itself on a detected cycle
    if (labels_valid_ && paranoid_checks_enabled() && !labels_match_full_relabel())
      throw graph_error("paranoid: dirty-region relabel diverged from full label()");
  } else {
    labels_valid_ = false;
  }
}

bool threaded_graph::position_legal(vertex_id v, const insert_position& pos) {
  g_->require_vertex(v);
  SOFTSCHED_EXPECT(!scheduled(v), "position_legal: vertex is already scheduled");
  if (!pos.valid() || pos.thread >= k_) return false;
  if (thread_tags_[static_cast<std::size_t>(pos.thread)] != vertex_tag_(v)) return false;
  if (pos.after < 0 || static_cast<std::size_t>(pos.after) >= nodes_.size()) return false;
  if (nodes_[static_cast<std::size_t>(pos.after)].thread != pos.thread) return false;
  const std::int32_t next = out_slot(pos.after, pos.thread);
  if (next == no_node) return false; // the sink sentinel is not a position
  refresh_closure();
  long long intrinsic_src = 0;
  long long intrinsic_snk = 0;
  compute_legality_and_intrinsics(v, intrinsic_src, intrinsic_snk);
  const auto rank = [this](std::int32_t n) { return nodes_[static_cast<std::size_t>(n)].rank; };
  const auto k = static_cast<std::size_t>(pos.thread);
  return rank(scratch_pred_cut_[k]) <= rank(pos.after) &&
         rank(pos.after) < rank(scratch_succ_cut_[k]);
}

insert_position threaded_graph::position_front(int thread) const {
  SOFTSCHED_EXPECT(thread >= 0 && thread < k_, "thread index out of range");
  return insert_position{thread, s_[static_cast<std::size_t>(thread)], 0};
}

insert_position threaded_graph::position_after(vertex_id v) const {
  const std::int32_t n = node_of(v);
  SOFTSCHED_EXPECT(n != no_node, "position_after needs a scheduled vertex");
  return insert_position{nodes_[static_cast<std::size_t>(n)].thread, n, 0};
}

void threaded_graph::schedule(vertex_id v) {
  if (scheduled(v)) return; // Definition 3: v already in V_S leaves S unchanged
  refresh_closure();        // single guard for the whole select + commit pair
  commit_impl(select_impl(v), v, /*trusted_legal=*/true);
}

void threaded_graph::schedule_all(const std::vector<vertex_id>& meta_order) {
  for (const vertex_id v : meta_order) schedule(v);
}

long long threaded_graph::diameter() {
  // The maximum sdist: label() takes it on a full pass, and
  // incremental_relabel keeps it current (sound because labels never
  // decrease: the maximum is max(previous diameter, the patched sdists)).
  label();
  return diameter_cache_;
}

long long threaded_graph::source_distance(vertex_id v) {
  const std::int32_t n = node_of(v);
  SOFTSCHED_EXPECT(n != no_node, "vertex is not scheduled");
  label();
  return nodes_[static_cast<std::size_t>(n)].sdist;
}

long long threaded_graph::sink_distance(vertex_id v) {
  const std::int32_t n = node_of(v);
  SOFTSCHED_EXPECT(n != no_node, "vertex is not scheduled");
  label();
  refresh_tdist(n);
  return nodes_[static_cast<std::size_t>(n)].tdist;
}

std::vector<long long> threaded_graph::asap_start_times() {
  std::vector<long long> start;
  asap_start_times(start);
  return start;
}

void threaded_graph::asap_start_times(std::vector<long long>& out) {
  label();
  out.assign(g_->vertex_count(), -1);
  for (const node& nd : nodes_) {
    if (!nd.gv.valid()) continue;
    out[nd.gv.value()] = nd.sdist - nd.delay;
  }
}

bool threaded_graph::state_precedes(vertex_id a, vertex_id b) const {
  const std::int32_t from = node_of(a);
  const std::int32_t to = node_of(b);
  SOFTSCHED_EXPECT(from != no_node && to != no_node, "both vertices must be scheduled");
  if (from == to) return true;
  scratch_seen_.assign(nodes_.size(), 0);
  scratch_bfs_.clear();
  scratch_bfs_.push_back(from);
  auto& seen = scratch_seen_;
  auto& queue = scratch_bfs_;
  seen[static_cast<std::size_t>(from)] = 1;
  while (!queue.empty()) {
    const std::int32_t u = queue.back();
    queue.pop_back();
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = out_slot(u, k);
      if (w == no_node || seen[static_cast<std::size_t>(w)]) continue;
      if (w == to) return true;
      seen[static_cast<std::size_t>(w)] = 1;
      queue.push_back(w);
    }
  }
  return false;
}

std::vector<std::pair<vertex_id, vertex_id>> threaded_graph::state_edges() const {
  std::vector<std::pair<vertex_id, vertex_id>> edges;
  state_edges(edges);
  return edges;
}

void threaded_graph::state_edges(std::vector<std::pair<vertex_id, vertex_id>>& edges) const {
  edges.clear();
  edges.reserve(scheduled_count_ * 2); // chain edge + typical cross-edge count
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].gv.valid()) continue;
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = out_slot(static_cast<std::int32_t>(i), k);
      if (w == no_node || !nodes_[static_cast<std::size_t>(w)].gv.valid()) continue;
      edges.emplace_back(nodes_[i].gv, nodes_[static_cast<std::size_t>(w)].gv);
    }
  }
}

void threaded_graph::check_invariants() const {
  const std::size_t count = nodes_.size();
  // 1. Thread chains: partition, strictly increasing ranks, paired slots.
  std::vector<std::uint8_t> on_chain(count, 0);
  std::size_t member_count = 0;
  for (int k = 0; k < k_; ++k) {
    std::int32_t prev = s_[static_cast<std::size_t>(k)];
    if (nodes_[static_cast<std::size_t>(prev)].rank != 0)
      throw graph_error("invariant: source sentinel rank must be 0");
    on_chain[static_cast<std::size_t>(prev)] = 1;
    for (std::int32_t cur = out_slot(prev, k); cur != no_node; cur = out_slot(cur, k)) {
      const node& nd = nodes_[static_cast<std::size_t>(cur)];
      if (nd.thread != k) throw graph_error("invariant: chain crosses into another thread");
      if (in_slot(cur, k) != prev) throw graph_error("invariant: chain slots not paired");
      if (nd.rank <= nodes_[static_cast<std::size_t>(prev)].rank)
        throw graph_error("invariant: thread ranks must strictly increase");
      if (on_chain[static_cast<std::size_t>(cur)])
        throw graph_error("invariant: vertex appears twice in thread chains");
      on_chain[static_cast<std::size_t>(cur)] = 1;
      if (nd.gv.valid()) ++member_count;
      prev = cur;
    }
    if (prev != t_[static_cast<std::size_t>(k)])
      throw graph_error("invariant: thread chain does not end at the sink sentinel");
  }
  for (std::size_t i = 0; i < count; ++i)
    if (!on_chain[i]) throw graph_error("invariant: node not covered by the thread partition");
  if (member_count != scheduled_count_)
    throw graph_error("invariant: scheduled count mismatch");

  // 2. Slot discipline: every out slot k points into thread k, slots are
  // paired, sentinels carry no cross edges.
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<std::int32_t>(i);
    for (int k = 0; k < k_; ++k) {
      const std::int32_t w = out_slot(u, k);
      if (w == no_node) continue;
      if (nodes_[static_cast<std::size_t>(w)].thread != k)
        throw graph_error("invariant: out slot k must point into thread k");
      const bool chain_edge = nodes_[i].thread == k;
      if (!chain_edge && (is_sentinel(u) || is_sentinel(w)))
        throw graph_error("invariant: sentinels must not carry cross edges");
      if (in_slot(w, nodes_[i].thread) != u)
        throw graph_error("invariant: out/in slots must pair up");
    }
    for (int j = 0; j < k_; ++j) {
      const std::int32_t p = in_slot(u, j);
      if (p == no_node) continue;
      if (nodes_[static_cast<std::size_t>(p)].thread != j)
        throw graph_error("invariant: in slot j must come from thread j");
      if (out_slot(p, nodes_[i].thread) != u)
        throw graph_error("invariant: in/out slots must pair up");
    }
  }

  // 3. Acyclicity (local Kahn; does not touch label caches).
  {
    std::vector<int> degree(count, 0);
    for (std::size_t i = 0; i < count; ++i)
      for (int k = 0; k < k_; ++k)
        if (in_slot(static_cast<std::int32_t>(i), k) != no_node) ++degree[i];
    std::vector<std::int32_t> order;
    order.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      if (degree[i] == 0) order.push_back(static_cast<std::int32_t>(i));
    for (std::size_t head = 0; head < order.size(); ++head)
      for (int k = 0; k < k_; ++k) {
        const std::int32_t w = out_slot(order[head], k);
        if (w != no_node && --degree[static_cast<std::size_t>(w)] == 0) order.push_back(w);
      }
    if (order.size() != count) throw graph_error("invariant: state graph is cyclic");
  }

  // 4. Correctness condition (Definition 3): for scheduled p, q with
  // p <G q the state must order p before q. Forward BFS from every node.
  graph::transitive_closure closure(*g_);
  for (std::size_t i = 0; i < count; ++i) {
    if (!nodes_[i].gv.valid()) continue;
    std::vector<std::uint8_t> seen(count, 0);
    std::vector<std::int32_t> queue{static_cast<std::int32_t>(i)};
    seen[i] = 1;
    while (!queue.empty()) {
      const std::int32_t u = queue.back();
      queue.pop_back();
      for (int k = 0; k < k_; ++k) {
        const std::int32_t w = out_slot(u, k);
        if (w != no_node && !seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
    }
    for (std::size_t b = 0; b < count; ++b) {
      if (!nodes_[b].gv.valid() || b == i) continue;
      if (closure.strictly_reaches(nodes_[i].gv, nodes_[b].gv) && !seen[b])
        throw graph_error("invariant: correctness condition violated (p <G q but not p <=S q)");
    }
  }
}

} // namespace softsched::core
