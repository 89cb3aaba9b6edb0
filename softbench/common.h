// common.h - what every softbench workload shares: run arguments, the result
// record softbench_driver prints, percentile helpers, and the span buffer the
// traced runs fill.
//
// Spans are recorded by the benchmark around its calls into the program's
// public functions (never inside src/), one steady-clock read per boundary,
// into a buffer sized before the traced phase starts; the buffer is
// summarized and written out after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace softbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line arguments of one run.
struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string cli_path; ///< softsched_cli, for serve_hot
  std::string work_dir; ///< scratch inside the checkout (sockets, trace files)
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The one result shape every workload returns; softbench_driver prints it
/// as the final JSON line.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> errors; ///< first few failure descriptions

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed operation (never aborts the run).
  void fail(std::string why) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100].
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank position of percentile p.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// percentile() for a tail rank: throws std::runtime_error when fewer than
/// ten samples lie beyond it, since such a rank is one or two samples'
/// timing and does not repeat.
[[nodiscard]] double tail_percentile(const std::vector<double>& sorted, double p);

/// Median of a small sample (copied, then sorted).
[[nodiscard]] double median(std::vector<double> values);

/// Every workload times units that repeat within a run, spread over all of
/// it (design points, refinements, request classes), and times each by its
/// best latency: its fastest repeat. The host's speed moves by up to 2x in
/// stretches of seconds. Means, medians and pooled percentiles move with the
/// share of the run it spends slow, which changes from run to run; the best
/// repeat moves much less.
///
/// Adds throughput (`work` per second of the summed best latencies),
/// latency_p50_ms and latency_tail_ms (percentile tail_p) over `best_ms`,
/// one best latency in ms per timed unit or request.
void add_best_timings(run_result& out, std::vector<double> best_ms, double work, double tail_p);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Moves every thread of this process together around the CPUs it may use:
/// all pinned to one CPU, then to the next at each step(), starting from
/// the CPU the caller runs on. A CPU the host slows for a whole run then
/// holds only its share of each unit's repeats, and threads that hand work
/// to each other still share one CPU instead of waking another. Restores
/// every thread's CPU set on destruction.
class cpu_rotation {
public:
  cpu_rotation();
  ~cpu_rotation();
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  /// Moves every thread to the next CPU.
  void step();

private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Interned span names: one enumerator per per-layer timing metric.
enum class span_kind : std::uint8_t {
  meta_order,
  core_build,
  core_schedule,
  core_extract,
  refine_spill,
  refine_wire,
  refine_move,
  refine_eco,
  refine_diameter,
  ir_hash,
  serve_frame_read,
  serve_parse,
  serve_signature,
  serve_key,
  serve_cache_lookup,
  serve_compute,
  serve_cache_insert,
  serve_permute,
  serve_serialize,
  serve_frame_write,
  count_
};

inline constexpr int span_kind_count = static_cast<int>(span_kind::count_);

/// Metric name of a span kind ("core.schedule_ms", ...).
[[nodiscard]] std::string_view span_metric_name(span_kind kind);

/// One recorded span: which call, which design/session/request it served,
/// and its interval in ns since the buffer's epoch.
struct span {
  span_kind kind;
  std::uint32_t owner;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Preallocated in-memory span buffer. record() never allocates once the
/// buffer was reserved; spans past capacity are still summed but not kept.
class span_buffer {
public:
  explicit span_buffer(std::size_t capacity);

  void record(span_kind kind, std::uint32_t owner, clock_type::time_point start,
              clock_type::time_point end) noexcept;

  /// Summed duration per span kind, in ms.
  [[nodiscard]] double total_ms(span_kind kind) const noexcept {
    return static_cast<double>(total_ns_[static_cast<int>(kind)]) / 1e6;
  }
  /// Summed duration of every span, in ms (all spans are top-level: the
  /// benchmark never opens one span inside another).
  [[nodiscard]] double all_ms() const noexcept;

  /// Writes the kept spans as CSV (kind,owner,start_ns,end_ns).
  void write_csv(const std::string& path) const;

private:
  clock_type::time_point epoch_;
  std::vector<span> spans_;
  std::int64_t total_ns_[span_kind_count] = {};
};

/// Times one call into the program and records it when `spans` is non-null.
template <typename F>
decltype(auto) timed(span_buffer* spans, span_kind kind, std::uint32_t owner, F&& call) {
  if (spans == nullptr) return call();
  const auto t0 = clock_type::now();
  struct recorder {
    span_buffer* spans;
    span_kind kind;
    std::uint32_t owner;
    clock_type::time_point t0;
    ~recorder() { spans->record(kind, owner, t0, clock_type::now()); }
  } rec{spans, kind, owner, t0};
  return call();
}

/// Adds every span-kind total as a "<layer>.<name>_ms" metric.
void add_span_metrics(run_result& out, const span_buffer* spans);

// The workloads. Each returns its metrics for args.trace (end-to-end when
// false, per-layer when true) and never throws for a failed operation.
[[nodiscard]] run_result run_kernel_large(const run_args& args);
[[nodiscard]] run_result run_refine_eco(const run_args& args);
[[nodiscard]] run_result run_serve_hot(const run_args& args);

/// The benchmark's self-tests; returns the number of failed checks.
[[nodiscard]] int run_selftest(const run_args& args);

} // namespace softbench
