#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace softbench {

namespace {

/// Nearest-rank index (0-based) of percentile p over `count` samples.
std::size_t rank_index(std::size_t count, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(count)));
  return std::clamp<std::size_t>(rank, 1, count) - 1;
}

/// Gives every thread of this process the CPU set `set`; a thread that
/// exits meanwhile is skipped.
void set_all_threads(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec))
    (void)sched_setaffinity(static_cast<pid_t>(std::stol(task.path().filename().string())),
                            sizeof set, &set);
}

constexpr std::string_view span_names[span_kind_count] = {
    "meta.order_ms",         "core.build_ms",          "core.schedule_ms",
    "core.extract_ms",       "refine.spill_ms",        "refine.wire_ms",
    "refine.move_ms",        "refine.eco_ms",          "refine.diameter_ms",
    "ir.hash_ms",            "serve.frame_read_ms",    "serve.parse_ms",
    "serve.signature_ms",    "serve.key_ms",           "serve.cache_lookup_ms",
    "serve.compute_ms",      "serve.cache_insert_ms",  "serve.permute_ms",
    "serve.serialize_ms",    "serve.frame_write_ms",
};

} // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::runtime_error("percentile of an empty sample");
  return sorted[rank_index(sorted.size(), p)];
}

std::size_t samples_beyond(std::size_t count, double p) {
  return count == 0 ? 0 : count - 1 - rank_index(count, p);
}

double tail_percentile(const std::vector<double>& sorted, double p) {
  if (samples_beyond(sorted.size(), p) < 10)
    throw std::runtime_error("p" + std::to_string(p) + " of " +
                             std::to_string(sorted.size()) +
                             " samples has fewer than 10 samples beyond it");
  return percentile(sorted, p);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50);
}

void add_best_timings(run_result& out, std::vector<double> best_ms, double work, double tail_p) {
  double busy_ms = 0;
  for (const double ms : best_ms) busy_ms += ms;
  std::sort(best_ms.begin(), best_ms.end());
  out.add("throughput", work / (busy_ms / 1e3), "1/s");
  out.add("latency_p50_ms", percentile(best_ms, 50), "ms");
  out.add("latency_tail_ms", tail_percentile(best_ms, tail_p), "ms");
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

cpu_rotation::cpu_rotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  const auto here = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
  next_ = here == cpus_.end() ? 0 : static_cast<std::size_t>(here - cpus_.begin());
  step();
}

cpu_rotation::~cpu_rotation() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  if (!cpus_.empty()) set_all_threads(all);
}

void cpu_rotation::step() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  set_all_threads(one);
}

std::string_view span_metric_name(span_kind kind) {
  return span_names[static_cast<int>(kind)];
}

span_buffer::span_buffer(std::size_t capacity) : epoch_(clock_type::now()) {
  spans_.reserve(capacity);
}

void span_buffer::record(span_kind kind, std::uint32_t owner, clock_type::time_point start,
                         clock_type::time_point end) noexcept {
  const auto ns = [&](clock_type::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  const std::int64_t s = ns(start);
  const std::int64_t e = ns(end);
  total_ns_[static_cast<int>(kind)] += e - s;
  if (spans_.size() < spans_.capacity()) spans_.push_back({kind, owner, s, e});
}

double span_buffer::all_ms() const noexcept {
  std::int64_t sum = 0;
  for (const std::int64_t ns : total_ns_) sum += ns;
  return static_cast<double>(sum) / 1e6;
}

void span_buffer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "span,owner,start_ns,end_ns\n";
  for (const span& s : spans_)
    out << span_metric_name(s.kind) << ',' << s.owner << ',' << s.start_ns << ','
        << s.end_ns << '\n';
}

void add_span_metrics(run_result& out, const span_buffer* spans) {
  for (int k = 0; k < span_kind_count; ++k) {
    const auto kind = static_cast<span_kind>(k);
    out.add(std::string(span_metric_name(kind)),
            spans != nullptr ? spans->total_ms(kind) : 0.0, "ms");
  }
}

} // namespace softbench
