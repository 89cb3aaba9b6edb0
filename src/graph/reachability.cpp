#include "graph/reachability.h"

#include <algorithm>
#include <bit>

#include "graph/topo.h"
#include "util/check.h"

namespace softsched::graph {

transitive_closure::transitive_closure(const precedence_graph& g, util::arena* a)
    : bits_(util::arena_allocator<std::uint64_t>(a)) {
  build(g);
}

void transitive_closure::rebuild(const precedence_graph& g) { build(g); }

void transitive_closure::build(const precedence_graph& g) {
  n_ = g.vertex_count();
  words_ = (n_ + 63) / 64;
  bits_.assign(n_ * words_, 0); // reuses capacity on a rebuild
  // Process vertices in reverse topological order; each row is the union of
  // successor rows plus the vertex itself.
  const std::vector<vertex_id> order = topological_order(g);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = it->value();
    set_bit(u, u);
    for (const vertex_id w : g.succs(*it)) {
      const std::size_t row_u = u * words_;
      const std::size_t row_w = w.value() * words_;
      for (std::size_t i = 0; i < words_; ++i) bits_[row_u + i] |= bits_[row_w + i];
    }
  }
}

std::size_t transitive_closure::pair_count() const {
  std::size_t total = 0;
  for (const std::uint64_t word : bits_) total += static_cast<std::size_t>(std::popcount(word));
  return total - n_; // subtract the reflexive diagonal
}

void transitive_closure::widen_rows(std::size_t new_words) {
  util::arena_vector<std::uint64_t> wide(n_ * new_words, 0, bits_.get_allocator());
  for (std::size_t r = 0; r < n_; ++r)
    std::copy_n(bits_.begin() + static_cast<std::ptrdiff_t>(r * words_), words_,
                wide.begin() + static_cast<std::ptrdiff_t>(r * new_words));
  bits_ = std::move(wide);
  words_ = new_words;
}

void transitive_closure::add_vertex() {
  const std::size_t needed = (n_ + 1 + 63) / 64;
  if (needed > words_) widen_rows(std::max(needed, words_ * 2));
  bits_.resize((n_ + 1) * words_, 0);
  set_bit(n_, n_);
  ++n_;
}

std::size_t transitive_closure::add_edge(vertex_id u, vertex_id v) {
  SOFTSCHED_EXPECT(u.valid() && v.valid() && u.value() < n_ && v.value() < n_,
                   "closure add_edge: vertex out of range");
  if (bit(u.value(), v.value())) return 0; // already ordered; nothing to propagate
  if (bit(v.value(), u.value()))
    throw graph_error("incremental closure: edge would close a cycle");
  std::size_t touched = 0;
  const std::uint64_t* src = bits_.data() + static_cast<std::size_t>(v.value()) * words_;
  for (std::size_t r = 0; r < n_; ++r) {
    if (!bit(r, u.value())) continue; // r does not reach the edge's tail
    // Rows already containing v also contain v's whole row (the update
    // always ORs complete rows), so the OR below would be a no-op.
    if (bit(r, v.value())) continue;
    std::uint64_t* dst = bits_.data() + r * words_;
    for (std::size_t i = 0; i < words_; ++i) dst[i] |= src[i];
    ++touched;
  }
  return touched;
}

std::size_t transitive_closure::grow_from(const precedence_graph& g, graph_cursor& cursor) {
  SOFTSCHED_EXPECT(cursor.vertices == n_, "closure grow_from: cursor describes another closure");
  const auto log = g.edge_log();
  SOFTSCHED_EXPECT(cursor.edges_logged <= log.size(),
                   "closure grow_from: cursor is ahead of the edge log");
  std::size_t touched = 0;
  while (n_ < g.vertex_count()) {
    add_vertex();
    ++touched;
  }
  for (std::size_t i = cursor.edges_logged; i < log.size(); ++i)
    touched += add_edge(log[i].first, log[i].second);
  cursor = g.cursor();
  return touched;
}

bool transitive_closure::equals(const transitive_closure& other) const {
  if (n_ != other.n_) return false;
  const std::size_t live = (n_ + 63) / 64;
  for (std::size_t r = 0; r < n_; ++r) {
    const std::uint64_t* a = bits_.data() + r * words_;
    const std::uint64_t* b = other.bits_.data() + r * other.words_;
    if (!std::equal(a, a + live, b)) return false;
  }
  return true;
}

} // namespace softsched::graph
