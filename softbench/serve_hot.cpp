// serve_hot - warm re-upload traffic through the shipped serving path. The
// program's own serve::service (one worker, the daemon's other defaults)
// runs in process, and one client connection drives it through
// serve::serve_connection, the loop every daemon transport runs: frame
// read, control sniffing, admission, pool hand-off, parse, memoized
// canonical hash, in-flight rendezvous, cache lookup, permute-back,
// serialize, frame write. That path does nearly all the work here; the
// kernel almost none.
//
// The traffic is the repo's DSE client's: a sweep uploads one design under
// every point of explore's default grid, and every catalog design is swept
// equally often. The shipped daemon (softsched_cli --serve --listen unix:...
// --jobs 2) runs as a child process beside it: it must answer every distinct
// upload with the same payload and compute as many schedules, and its peak
// RSS is the run's peak_rss_mb. The traced run replays the same requests
// single threaded through the stage functions service::process calls, with
// a span on each.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "explore/grid.h"
#include "hard/schedule.h"
#include "inputs.h"
#include "ir/benchmarks.h"
#include "serve/cache.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/request.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "workloads.h"

extern char** environ;

namespace softbench {

namespace si = softsched::ir;
namespace sv = softsched::serve;

namespace {

/// Catalog: the paper suite plus seeded random designs on a fixed size
/// ladder (the seed varies structure, not size), each under every point of
/// explore's default grid (alus 1-4 x muls 1-3, one memory port).
constexpr int catalog_smallest = 100;
constexpr int catalog_largest = 1000;
constexpr int catalog_step = 100;
constexpr std::size_t arf_design = 1; // positions in the design list below
constexpr std::size_t fir64_design = 3;

/// The measured requests come in groups of five rounds; a round sweeps every
/// catalog design once, in a seeded order. Three of a group's 75 sweeps
/// upload a freshly renumbered design (FIR64, AR and one other design in
/// turn), so 1 request in 25 is a renumbered re-upload. Groups per second
/// of --seconds are sized like kernel_large's passes_per_second.
constexpr double groups_per_second = 4;
constexpr int rounds_per_group = 5;

constexpr int setup_repeats = 3;
constexpr double tail_p = 90;
constexpr int connections = 2; ///< the daemon check's client connections

const sv::frame_limits limits{};

struct upload {
  std::string framed;   ///< "<length>\n<request JSON>\n", as sent
  std::size_t head = 0; ///< where the request JSON starts in `framed`
  bool renumbered = false;
  /// Request class: the design and grid point, and whether the text is the
  /// catalog's or a fresh renumbering. Requests of one class do the same work.
  std::uint32_t kind = 0;

  [[nodiscard]] std::string_view payload() const {
    return std::string_view(framed).substr(head, framed.size() - head - 1);
  }
};

struct inputs {
  std::vector<std::unique_ptr<si::dfg>> designs;
  std::vector<si::resource_set> grid; ///< explore's default grid, in its order
  std::vector<upload> uploads;        ///< catalog first (design-major), then renumbered
  std::size_t catalog = 0;
  std::size_t kinds = 0;
  std::vector<std::uint32_t> sequence; ///< the measured requests, group after group
  std::size_t per_group = 0;
};

upload make_upload(const std::string& id, const std::string& text,
                   const si::resource_set& rs, bool renumbered, std::size_t kind) {
  std::ostringstream json;
  softsched::json_writer j(json, /*compact=*/true);
  j.begin_object();
  j.member("id", std::string_view(id));
  j.member("dfg", std::string_view(text));
  j.member("alus", rs.alus);
  j.member("muls", rs.multipliers);
  j.member("mems", rs.memory_ports);
  j.member("backend", std::string_view("soft"));
  j.end_object();
  const std::string payload = std::move(json).str();
  upload up;
  up.framed = std::to_string(payload.size()) + '\n';
  up.head = up.framed.size();
  up.framed += payload;
  up.framed += '\n';
  up.renumbered = renumbered;
  up.kind = static_cast<std::uint32_t>(kind);
  return up;
}

inputs make_inputs(const si::resource_library& library, std::uint64_t seed, int seconds) {
  inputs in;
  in.designs.push_back(std::make_unique<si::dfg>(si::make_hal(library)));
  in.designs.push_back(std::make_unique<si::dfg>(si::make_arf(library)));
  in.designs.push_back(std::make_unique<si::dfg>(si::make_ewf(library)));
  in.designs.push_back(std::make_unique<si::dfg>(si::make_fir(library, 64)));
  in.designs.push_back(std::make_unique<si::dfg>(si::make_iir_cascade(library, 16)));
  std::uint64_t tag = 0;
  for (int n = catalog_smallest; n <= catalog_largest; n += catalog_step)
    in.designs.push_back(std::make_unique<si::dfg>(
        random_design(library, n, 0.25, derive_seed(seed, 300 + ++tag))));
  for (const auto& point : softsched::explore::enumerate_grid(softsched::explore::grid_spec{}))
    in.grid.push_back(point.resources);

  const std::size_t points = in.grid.size();
  for (const auto& d : in.designs) {
    const std::string text = dfg_text(*d);
    for (const si::resource_set& rs : in.grid)
      in.uploads.push_back(make_upload("c" + std::to_string(in.uploads.size()), text, rs, false,
                                       in.uploads.size()));
  }
  in.catalog = in.uploads.size();
  in.kinds = 2 * in.catalog; // then the renumbered classes, in the same order

  std::vector<std::uint32_t> others; // the designs renumbered in turn beside FIR64 and AR
  for (std::uint32_t d = 0; d < in.designs.size(); ++d)
    if (d != arf_design && d != fir64_design) others.push_back(d);
  std::vector<std::uint32_t> order(in.designs.size());
  softsched::rng rand(derive_seed(seed, 77));
  const int groups = std::max(2, static_cast<int>(seconds * groups_per_second + 0.5));
  std::uint64_t renumbered = 0;
  for (int g = 0; g < groups; ++g) {
    const std::uint32_t renumber_design[3] = {static_cast<std::uint32_t>(fir64_design),
                                              static_cast<std::uint32_t>(arf_design),
                                              others[static_cast<std::size_t>(g) % others.size()]};
    int renumber_round[3];
    for (int& r : renumber_round) r = static_cast<int>(rand.below(rounds_per_group));
    for (int r = 0; r < rounds_per_group; ++r) {
      for (std::uint32_t d = 0; d < order.size(); ++d) order[d] = d;
      rand.shuffle(order);
      for (const std::uint32_t d : order) {
        bool fresh = false;
        for (int k = 0; k < 3; ++k) fresh = fresh || (renumber_design[k] == d && renumber_round[k] == r);
        if (!fresh) {
          for (std::size_t p = 0; p < points; ++p)
            in.sequence.push_back(static_cast<std::uint32_t>(d * points + p));
          continue;
        }
        const renumbered_dfg variant =
            renumber(*in.designs[d], derive_seed(seed, 100000 + renumbered));
        const std::string id = "r" + std::to_string(renumbered++) + ".";
        for (std::size_t p = 0; p < points; ++p) {
          in.sequence.push_back(static_cast<std::uint32_t>(in.uploads.size()));
          in.uploads.push_back(make_upload(id + std::to_string(p), variant.text, in.grid[p], true,
                                           in.catalog + d * points + p));
        }
      }
    }
  }
  in.per_group = in.sequence.size() / static_cast<std::size_t>(groups);
  return in;
}

/// A response payload minus its per-connection "line" and its "ms" timing:
/// everything every answer to one upload must agree on byte for byte. Empty
/// when malformed.
std::string_view payload_core(std::string_view payload) {
  const std::size_t first = payload.find(',');
  const std::size_t ms = payload.rfind(",\"ms\":");
  if (payload.substr(0, 8) != "{\"line\":" || first == std::string_view::npos ||
      ms == std::string_view::npos || ms < first)
    return {};
  return payload.substr(first + 1, ms - first - 1);
}

/// What every response to one upload must agree on: the digest of the first
/// response's payload core (0 = no response yet). The first response itself
/// is kept for the legality check.
struct expectations {
  explicit expectations(std::size_t uploads) : digest(uploads, 0), first(uploads) {}

  /// Checks one response to upload `u`; a mismatch or an error response is
  /// one failure in `out`.
  void check(std::uint32_t u, std::string_view payload, run_result& out) {
    const std::string_view core = payload_core(payload);
    if (core.empty() || core.find("\"error\":") != std::string_view::npos) {
      out.fail("upload " + std::to_string(u) + ": error response " +
               std::string(payload.substr(0, 160)));
      return;
    }
    const std::uint64_t h = digest_of(core);
    if (digest[u] == 0) {
      digest[u] = h;
      first[u] = payload;
    } else if (digest[u] != h) {
      out.fail("upload " + std::to_string(u) + ": payload differs from the first answer to it");
    }
  }

  static std::uint64_t digest_of(std::string_view core) {
    const std::uint64_t h = std::hash<std::string_view>{}(core);
    return h == 0 ? 1 : h;
  }

  std::vector<std::uint64_t> digest;
  std::vector<std::string> first;
};

/// Empty when `payload`, an answer to `up`, carries a feasible schedule that
/// passes the program's shared legality checker (hard::validate_schedule)
/// for the uploaded design and allocation, in the requester's numbering;
/// otherwise what is wrong. Sets `latency` to the schedule's length.
std::string illegal_response(const upload& up, std::string_view payload, long long& latency) {
  const sv::request req = sv::parse_request_line(up.payload());
  const softsched::json_value v = softsched::parse_json(payload);
  const softsched::json_value* feasible = v.find("feasible");
  const softsched::json_value* length = v.find("latency");
  const softsched::json_value* start = v.find("start");
  const softsched::json_value* unit = v.find("unit");
  if (feasible == nullptr || !feasible->as_bool()) return "infeasible";
  if (length == nullptr || start == nullptr || unit == nullptr) return "schedule missing";
  softsched::hard::schedule hs;
  for (const softsched::json_value& s : start->items())
    hs.start.push_back(static_cast<long long>(s.as_number()));
  for (const softsched::json_value& u : unit->items())
    hs.unit.push_back(static_cast<int>(u.as_number()));
  hs.makespan = latency = static_cast<long long>(length->as_number());
  si::resource_library library;
  library.set_latency(si::op_kind::mul, req.mul_latency);
  const si::dfg design = sv::build_request_design(req, library);
  const std::vector<std::string> violations =
      softsched::hard::validate_schedule(design, hs, &req.resources);
  return violations.empty() ? std::string() : violations.front();
}

/// Checks the first answer to every upload for legality (untimed) and
/// returns each upload's schedule length (-1 when unanswered or illegal).
std::vector<long long> check_legality(const inputs& in, const expectations& expect,
                                      run_result& out) {
  std::vector<long long> latency(in.uploads.size(), -1);
  for (std::size_t u = 0; u < in.uploads.size(); ++u) {
    if (expect.first[u].empty()) continue;
    try {
      long long length = -1;
      const std::string why = illegal_response(in.uploads[u], expect.first[u], length);
      if (why.empty()) latency[u] = length;
      else out.fail("upload " + std::to_string(u) + ": " + why);
    } catch (const std::exception& e) {
      out.fail("upload " + std::to_string(u) + ": " + e.what());
    }
  }
  return latency;
}

// -- the client connection to the in-process service -------------------------

/// One closed-loop client connection, as the byte stream serve_connection
/// reads requests from and writes responses to. It sends `order`'s uploads
/// one at a time, each once the previous one is answered, checks every
/// response against `expect`, and records when each request was sent and
/// when its response was written. With `cpus` set, it moves the process to
/// the next CPU before every `step_every`-th request.
class client_stream final : public sv::byte_stream {
public:
  client_stream(const inputs& in, const std::vector<std::uint32_t>& order, expectations& expect,
                run_result& out, cpu_rotation* cpus, std::size_t step_every)
      : sent_at(order.size()), answered_at(order.size()), in_(in), order_(order),
        expect_(expect), out_(out), cpus_(cpus), step_every_(step_every) {}

  // -- reader side: serve_connection's thread ------------------------------
  [[nodiscard]] int get() override {
    if (pos_ == frame_.size() && !next_frame()) return -1;
    count_in(1);
    return static_cast<unsigned char>(frame_[pos_++]);
  }
  [[nodiscard]] bool read_exact(char* dst, std::size_t n) override {
    if (frame_.size() - pos_ < n) return false;
    std::memcpy(dst, frame_.data() + pos_, n);
    pos_ += n;
    count_in(n);
    return true;
  }

  // -- writer side: the service's worker, under serve_connection's writer
  //    mutex --------------------------------------------------------------
  [[nodiscard]] bool write_all(std::string_view data) override {
    response_.append(data);
    count_out(data.size());
    return true;
  }
  bool flush() override {
    const auto now = clock_type::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (answered_ < answered_at.size()) answered_at[answered_] = now;
    ++answered_;
    answer_.notify_one();
    return true;
  }
  [[nodiscard]] std::string label() const override { return "memory"; }

  /// Counts the requests that got no checked response. Call once
  /// serve_connection has returned.
  void finish() {
    if (checked_ < order_.size())
      out_.fail(std::to_string(order_.size() - checked_) + " requests got no response");
  }

  std::vector<clock_type::time_point> sent_at;     ///< per request
  std::vector<clock_type::time_point> answered_at; ///< per request

private:
  /// At a frame boundary: waits for the answer to the request in flight,
  /// checks it, then loads the next request. False once every request is
  /// answered.
  bool next_frame() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      answer_.wait(lock, [&] { return answered_ >= sent_; });
      if (answered_ > sent_) out_.fail("response frame beyond the requests sent");
    }
    if (sent_ > checked_) {
      const std::size_t head = response_.find('\n');
      const std::string_view payload =
          head == std::string::npos || response_.size() < head + 2
              ? std::string_view()
              : std::string_view(response_).substr(head + 1, response_.size() - head - 2);
      expect_.check(order_[checked_++], payload, out_);
      response_.clear();
    }
    if (sent_ == order_.size()) return false;
    if (cpus_ != nullptr && sent_ > 0 && sent_ % step_every_ == 0) cpus_->step();
    frame_ = in_.uploads[order_[sent_]].framed;
    pos_ = 0;
    sent_at[sent_++] = clock_type::now();
    return true;
  }

  const inputs& in_;
  const std::vector<std::uint32_t>& order_;
  expectations& expect_;
  run_result& out_;
  cpu_rotation* cpus_;
  std::size_t step_every_;
  std::string_view frame_; ///< the request being read
  std::size_t pos_ = 0;
  std::size_t sent_ = 0;
  std::size_t checked_ = 0;
  std::string response_; ///< the answer to the request in flight

  std::mutex mutex_;
  std::condition_variable answer_;
  std::size_t answered_ = 0; ///< under mutex_
};

/// The service's options for one client: the daemon's defaults, one worker.
sv::service_options one_worker() {
  sv::service_options o;
  o.jobs = 1;
  return o;
}

/// Serves `order` over one client connection to `svc`; returns each
/// request's latency, from its send to its response written, in ms. With
/// `cpus` set, every group of requests runs on the next CPU.
std::vector<double> serve(sv::service& svc, const inputs& in,
                          const std::vector<std::uint32_t>& order, expectations& expect,
                          run_result& out, cpu_rotation* cpus = nullptr) {
  client_stream stream(in, order, expect, out, cpus, in.per_group);
  const sv::connection_summary s = sv::serve_connection(stream, svc, sv::connection_options{});
  stream.finish();
  out.attempted += order.size();
  if (s.end != sv::connection_end::eof || s.requests != order.size())
    out.fail("the connection ended after " + std::to_string(s.requests) + " of " +
             std::to_string(order.size()) + " requests");
  std::vector<double> latency_ms(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    latency_ms[i] = ms_between(stream.sent_at[i], stream.answered_at[i]);
  return latency_ms;
}

/// Each measured request's best latency (add_best_timings): the fastest
/// answer in the run to any request of its class.
std::vector<double> best_latency_ms(const inputs& in, const std::vector<double>& latency_ms) {
  std::vector<double> best(in.kinds, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < in.sequence.size(); ++i) {
    double& b = best[in.uploads[in.sequence[i]].kind];
    b = std::min(b, latency_ms[i]);
  }
  std::vector<double> per_request(in.sequence.size());
  for (std::size_t i = 0; i < in.sequence.size(); ++i)
    per_request[i] = best[in.uploads[in.sequence[i]].kind];
  return per_request;
}

// -- the daemon child process -------------------------------------------------

/// The daemon child process. Killed and reaped on destruction if still up;
/// a watchdog kills it at `deadline` so a hung daemon can never hang the
/// client's blocking reads past it.
class daemon_process {
public:
  daemon_process(const std::string& cli, const std::string& socket_path,
                 const std::string& log_path, clock_type::time_point deadline) {
    std::filesystem::remove(socket_path);
    const std::string listen = "unix:" + socket_path;
    std::vector<std::string> argv_s = {cli, "--serve", "--listen", listen, "--jobs", "2"};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + cli + ": " + std::strerror(rc));
    watchdog_ = std::thread([this, deadline] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!exited_.wait_until(lock, deadline, [&] { return reaped_; })) ::kill(pid_, SIGKILL);
    });
  }

  ~daemon_process() {
    if (!reaped()) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ::kill(pid_, SIGKILL);
      }
      reap(std::chrono::seconds(10));
    }
    watchdog_.join();
  }

  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  [[nodiscard]] bool reaped() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reaped_;
  }

  /// Waits up to `patience` for the daemon to exit, then kills it. Returns
  /// whether it exited cleanly with status 0.
  bool reap(std::chrono::milliseconds patience) {
    const auto give_up = clock_type::now() + patience;
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (reaped_) return false;
        int status = 0;
        rusage usage{};
        if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
          reaped_ = true;
          peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
          exited_.notify_all();
          return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        if (clock_type::now() > give_up) ::kill(pid_, SIGKILL);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// The daemon's peak resident set, in MiB, once reaped.
  [[nodiscard]] double peak_rss_mb() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peak_rss_mb_;
  }

private:
  pid_t pid_ = -1;
  std::mutex mutex_;
  std::condition_variable exited_;
  bool reaped_ = false;
  double peak_rss_mb_ = 0;
  std::thread watchdog_; // last: it uses the members above
};

/// One closed loop: send an upload, wait for its response, compare it with
/// the in-process service's answer to the same upload, repeat.
void drive(sv::byte_stream& stream, const inputs& in, const std::vector<std::uint32_t>& items,
           const expectations& expect, run_result& log) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t item = items[i];
    ++log.attempted;
    const bool sent = sv::write_frame(stream, in.uploads[item].payload());
    const sv::frame_read frame = sv::read_frame(stream, limits);
    if (!sent || frame.status != sv::frame_status::ok) {
      // The connection is gone: every remaining request is a failure.
      log.fail("daemon: no response: " + frame.error);
      log.attempted += items.size() - i - 1;
      log.failed += items.size() - i - 1;
      return;
    }
    const std::string_view core = payload_core(frame.payload);
    if (core.empty() || expectations::digest_of(core) != expect.digest[item])
      log.fail("upload " + std::to_string(item) + ": daemon payload differs from the "
                      "in-process service's: " + frame.payload.substr(0, 160));
  }
}

/// Runs the shipped daemon as a child process, sends it every upload once
/// over two closed-loop connections (the catalog first, then the renumbered
/// uploads), and checks its payloads and its computed count against the
/// in-process service's. Returns the daemon's peak RSS in MiB.
double check_daemon(const run_args& args, const inputs& in, const expectations& expect,
                    std::uint64_t computed, run_result& out) {
  const std::string socket_path = args.work_dir + "/serve.sock";
  daemon_process daemon(args.cli_path, socket_path, args.work_dir + "/daemon.log",
                        clock_type::now() + std::chrono::seconds(150));
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + socket_path);
  std::unique_ptr<sv::byte_stream> conn[connections];
  const auto give_up = clock_type::now() + std::chrono::seconds(30);
  for (auto& c : conn) {
    while (c == nullptr) {
      c = sv::connect_stream(spec);
      if (c != nullptr) break;
      if (daemon.reaped() || clock_type::now() > give_up)
        throw std::runtime_error("daemon did not start listening (see daemon.log)");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto ask = [&](const char* control) {
    if (!sv::write_frame(*conn[0], control)) throw std::runtime_error("daemon gone");
    const sv::frame_read frame = sv::read_frame(*conn[0], limits);
    if (frame.status != sv::frame_status::ok) throw std::runtime_error("daemon did not answer");
    return frame.payload;
  };
  if (ask(R"({"op":"hello"})").find("\"hello\"") == std::string::npos)
    throw std::runtime_error("hello not answered");

  run_result logs[connections]; // one per connection thread
  for (const auto& [from, to] : {std::pair{std::size_t{0}, in.catalog},
                                std::pair{in.catalog, in.uploads.size()}}) {
    std::vector<std::uint32_t> halves[connections];
    for (std::size_t u = from; u < to; ++u)
      halves[u % connections].push_back(static_cast<std::uint32_t>(u));
    std::thread second([&] { drive(*conn[1], in, halves[1], expect, logs[1]); });
    drive(*conn[0], in, halves[0], expect, logs[0]);
    second.join();
  }
  const softsched::json_value stats = softsched::parse_json(ask(R"({"op":"stats"})"));

  // Graceful stop: EOF on the second connection, shutdown on the first.
  conn[1]->finish_write();
  (void)sv::read_frame(*conn[1], limits);
  conn[1].reset();
  const bool acked = sv::write_frame(*conn[0], R"({"op":"shutdown"})") &&
                     sv::read_frame(*conn[0], limits).status == sv::frame_status::ok;
  conn[0].reset();
  if (!daemon.reap(std::chrono::seconds(20)) || !acked)
    out.fail("daemon did not shut down cleanly");

  for (const run_result& log : logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.correct = out.correct && log.correct;
    for (const std::string& e : log.errors)
      if (out.errors.size() < 8) out.errors.push_back(e);
  }
  const auto number = [&](const char* key) {
    const softsched::json_value* v = stats.find(key);
    return v != nullptr && v->is_number() ? v->as_number() : -1.0;
  };
  if (number("computed") != static_cast<double>(computed))
    out.fail("daemon computed " + std::to_string(number("computed")) +
             " schedules, the in-process service " + std::to_string(computed));
  if (number("errors") != 0 || number("overloaded") != 0)
    out.fail("daemon reported errors or shed requests");
  return daemon.peak_rss_mb();
}

// -- the traced stage replay ----------------------------------------------------

/// In-memory byte_stream: the frame codec runs over it exactly as over a
/// socket.
class memory_stream final : public sv::byte_stream {
public:
  void load(std::string_view in) {
    in_ = in;
    pos_ = 0;
  }
  [[nodiscard]] int get() override {
    if (pos_ >= in_.size()) return -1;
    count_in(1);
    return static_cast<unsigned char>(in_[pos_++]);
  }
  [[nodiscard]] bool read_exact(char* dst, std::size_t n) override {
    if (in_.size() - pos_ < n) return false;
    std::memcpy(dst, in_.data() + pos_, n);
    pos_ += n;
    count_in(n);
    return true;
  }
  [[nodiscard]] bool write_all(std::string_view data) override {
    out.append(data);
    count_out(data.size());
    return true;
  }
  bool flush() override { return true; }
  [[nodiscard]] std::string label() const override { return "memory"; }

  std::string out;

private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// One request's outcome through the replay.
struct processed {
  std::string payload; ///< empty when the request failed
  long long latency = 0;
  double ms = 0; ///< frame read to frame written
};

/// The stages service::process and serve_connection run, single threaded,
/// in the same order, over the daemon's default cache, plus the counters
/// behind the per-layer metrics. The service's memo bounds never trip at
/// this workload's size, so the replay's memo is unbounded.
class pipeline {
public:
  pipeline() : cache_(sv::service_options{}.cache_bytes, sv::service_options{}.cache_shards) {}

  /// Frames `up`, runs it through every stage (spans when `spans` is set).
  /// A failure is counted in `out` and returns an empty payload.
  processed process(const upload& up, span_buffer* spans, std::uint32_t owner, run_result& out);

  std::uint64_t requests = 0;
  std::uint64_t computed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t renumbered = 0;
  std::uint64_t renumbered_hits = 0;
  layer_counters counters;
  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return stream_.bytes_in(); }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept { return stream_.bytes_out(); }

private:
  sv::schedule_cache cache_;
  softsched::sched::run_context ctx_;
  std::unordered_map<std::string, sv::source_info> memo_;
  memory_stream stream_;
};

processed pipeline::process(const upload& up, span_buffer* spans, std::uint32_t owner,
                            run_result& out) {
  processed result;
  stream_.load(up.framed);
  stream_.out.clear();
  ++requests;
  try {
    const auto t0 = clock_type::now();
    const sv::frame_read frame = timed(spans, span_kind::serve_frame_read, owner,
                                       [&] { return sv::read_frame(stream_, limits); });
    const sv::request req = timed(spans, span_kind::serve_parse, owner, [&] {
      if (sv::classify_control(frame.payload).kind != sv::control_kind::none)
        throw std::runtime_error("upload classified as a control frame");
      return sv::parse_request_line(frame.payload);
    });
    sv::response r;
    r.id = req.id;
    r.backend = req.backend;
    const sv::source_info* source = nullptr;
    std::string sig;
    timed(spans, span_kind::serve_signature, owner, [&] {
      sig = req.source_signature();
      const auto it = memo_.find(sig);
      if (it != memo_.end()) source = &it->second;
    });
    if (source != nullptr) {
      ++memo_hits;
    } else {
      timed(spans, span_kind::ir_hash, owner, [&] {
        source = &memo_.try_emplace(sig, sv::hash_request_source(req)).first->second;
      });
    }
    if (!source->error.empty()) throw std::runtime_error(source->error);
    r.key = timed(spans, span_kind::serve_key, owner,
                  [&] { return sv::schedule_key_for(req, source->digest); });
    sv::schedule_cache::result_ptr cached = timed(spans, span_kind::serve_cache_lookup, owner,
                                                  [&] { return cache_.lookup(r.key); });
    const bool miss = cached == nullptr;
    if (miss) {
      cached = timed(spans, span_kind::serve_compute, owner, [&] {
        return std::make_shared<const sv::schedule_result>(
            sv::compute_canonical_schedule(req, source->canonical_of, ctx_));
      });
      timed(spans, span_kind::serve_cache_insert, owner, [&] { cache_.insert(r.key, cached); });
    }
    r.result = timed(spans, span_kind::serve_permute, owner,
                     [&] { return sv::result_to_source_order(*cached, source->canonical_of); });
    std::string payload = timed(spans, span_kind::serve_serialize, owner, [&] {
      std::ostringstream oss;
      sv::write_response_line(oss, r, /*emit_schedule=*/true);
      return std::move(oss).str();
    });
    timed(spans, span_kind::serve_frame_write, owner,
          [&] { (void)sv::write_frame(stream_, payload); });
    result.ms = ms_between(t0, clock_type::now());

    if (miss) {
      ++computed;
      counters.add(cached->stats);
    } else {
      ++cache_hits;
      if (up.renumbered) ++renumbered_hits;
    }
    if (up.renumbered) ++renumbered;
    result.payload = std::move(payload);
    result.latency = r.result.latency;
  } catch (const std::exception& e) {
    out.fail(std::string("replay: ") + e.what());
  }
  return result;
}

/// What one stretch of requests through the replay produced.
struct phase {
  double busy_ms = 0;
  long long states = 0;
};

/// Sends `order` through `p`; every payload must equal the in-process
/// service's answer to the same upload.
phase run_phase(pipeline& p, const inputs& in, const std::vector<std::uint32_t>& order,
                expectations& expect, span_buffer* spans, run_result& out) {
  phase ph;
  for (const std::uint32_t item : order) {
    ++out.attempted;
    const processed r =
        p.process(in.uploads[item], spans, static_cast<std::uint32_t>(p.requests), out);
    if (r.payload.empty()) continue;
    ph.busy_ms += r.ms;
    ph.states += r.latency;
    expect.check(item, r.payload, out);
  }
  return ph;
}

} // namespace

run_result run_serve_hot(const run_args& args) {
  run_result out;
  const si::resource_library library;
  const inputs in = make_inputs(library, args.seed, args.seconds);
  std::vector<std::uint32_t> catalog(in.catalog);
  for (std::uint32_t e = 0; e < in.catalog; ++e) catalog[e] = e;
  expectations expect(in.uploads.size());

  // -- set-up: start the service and warm every catalog entry (the cold
  //    path); repeated, reporting the median, and the last service serves
  //    the measured requests -------------------------------------------------
  std::vector<double> setup_s;
  std::vector<double> measured_ms;
  sv::service_stats stats;
  {
    cpu_rotation cpus; // the client and the service's worker share one CPU
    std::unique_ptr<sv::service> svc;
    for (int rep = 0; rep < (args.trace ? 1 : setup_repeats); ++rep) {
      svc.reset();
      const auto t0 = clock_type::now();
      svc = std::make_unique<sv::service>(one_worker());
      (void)serve(*svc, in, catalog, expect, out);
      setup_s.push_back(ms_between(t0, clock_type::now()) / 1e3);
    }
    measured_ms = serve(*svc, in, in.sequence, expect, out, &cpus);
    stats = svc->stats();
  }
  if (stats.errors != 0 || stats.overloaded != 0)
    out.fail("the in-process service reported errors or shed requests");

  const auto v0 = clock_type::now();
  const std::vector<long long> latency = check_legality(in, expect, out);
  const double validate_ms = ms_between(v0, clock_type::now());
  long long states_total = 0;
  for (const std::uint32_t u : in.sequence) states_total += latency[u];
  const double daemon_rss_mb = check_daemon(args, in, expect, stats.computed, out);

  if (!args.trace) {
    add_best_timings(out, best_latency_ms(in, measured_ms),
                     static_cast<double>(in.sequence.size()), tail_p);
    out.add("states_total", static_cast<double>(states_total), "states");
    out.add("peak_rss_mb", daemon_rss_mb, "MB");
    out.add("setup_s", median(setup_s), "s");
    return out;
  }

  // -- traced run: the same warm-up and requests through the stage replay,
  //    untraced and then with a span on each stage; both must answer every
  //    upload as the service did ------------------------------------------
  double service_ms = 0;
  for (const double ms : measured_ms) service_ms += ms;
  pipeline plain;
  const phase plain_warm = run_phase(plain, in, catalog, expect, nullptr, out);
  const phase plain_measured = run_phase(plain, in, in.sequence, expect, nullptr, out);

  span_buffer spans((in.catalog + in.sequence.size()) * 11);
  pipeline p;
  const phase traced_warm = run_phase(p, in, catalog, expect, &spans, out);
  const phase traced_measured = run_phase(p, in, in.sequence, expect, &spans, out);
  spans.write_csv(args.work_dir + "/trace-serve_hot.csv");
  const double traced_ms = traced_warm.busy_ms + traced_measured.busy_ms;
  if (p.computed != stats.computed || p.cache_hits != stats.cache_hits + stats.deduped)
    out.fail("the replay computed " + std::to_string(p.computed) + " schedules, the service " +
             std::to_string(stats.computed));

  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  add_span_metrics(out, &spans);
  p.counters.emit(out);
  out.add("sched.computed", static_cast<double>(p.computed), "count");
  out.add("ir.renumber_hit_ratio", ratio(p.renumbered_hits, p.renumbered), "ratio");
  out.add("serve.memo_hit_ratio", ratio(p.memo_hits, p.requests), "ratio");
  out.add("serve.cache_hit_ratio", ratio(p.cache_hits, p.requests), "ratio");
  out.add("serve.bytes_in", static_cast<double>(p.bytes_in()), "bytes");
  out.add("serve.bytes_out", static_cast<double>(p.bytes_out()), "bytes");
  out.add("serve.dispatch_ms", service_ms - plain_measured.busy_ms, "ms");
  out.add("serve.daemon_p50_ms", stats.p50_ms, "ms");
  out.add("serve.daemon_p99_ms", stats.p99_ms, "ms");
  out.add("serve.computed", static_cast<double>(stats.computed), "count");
  out.add("serve.deduped", static_cast<double>(stats.deduped), "count");
  out.add("serve.peak_queue_depth", static_cast<double>(stats.peak_queue_depth), "count");
  out.add("hard.validate_ms", validate_ms, "ms");
  out.add("trace.overhead", traced_ms / (plain_warm.busy_ms + plain_measured.busy_ms) - 1,
          "ratio");
  out.add("trace.unattributed_share", 1 - spans.all_ms() / traced_ms, "ratio");
  out.add("trace.states_total", static_cast<double>(traced_measured.states), "states");
  return out;
}

} // namespace softbench
