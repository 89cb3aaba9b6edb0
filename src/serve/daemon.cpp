#include "serve/daemon.h"

#include "serve/protocol.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/json_parse.h"

namespace softsched::serve {

namespace {

using clock_type = std::chrono::steady_clock;

double millis_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

void sleep_ms(double ms) {
  if (ms > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Entry bound of the source memo (daemon.h): the memo is a recognition
/// shortcut, not the capacity story.
constexpr std::size_t memo_entry_limit = 1 << 16;

unsigned parse_fault_index(std::string_view text, std::string_view rule) {
  bool ok = !text.empty() && text.size() <= 6;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  SOFTSCHED_EXPECT(ok, "fault spec: bad target index in rule '" + std::string(rule) + "'");
  return value;
}

double parse_fault_delay(std::string_view text, std::string_view rule) {
  bool ok = !text.empty();
  double value = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      value = std::stod(std::string(text), &used);
      ok = used == text.size() && value >= 0;
    } catch (const std::exception&) {
      ok = false;
    }
  }
  SOFTSCHED_EXPECT(ok, "fault spec: bad delay_ms in rule '" + std::string(rule) + "'");
  return value;
}

} // namespace

fault_plan fault_plan::parse(std::string_view spec) {
  fault_plan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? spec.size() : comma;
    const std::string_view rule = spec.substr(pos, end - pos);
    pos = end + 1;
    if (rule.empty()) continue;

    std::vector<std::string_view> segments;
    std::size_t seg = 0;
    while (seg <= rule.size()) {
      const std::size_t colon = rule.find(':', seg);
      const std::size_t seg_end = colon == std::string_view::npos ? rule.size() : colon;
      segments.push_back(rule.substr(seg, seg_end - seg));
      seg = seg_end + 1;
    }
    SOFTSCHED_EXPECT(segments.size() >= 2,
                     "fault spec: rule '" + std::string(rule) +
                         "' needs <target>:<action> (e.g. slot=0:delay_ms=5)");

    const std::string_view target = segments[0];
    const bool is_io = target.substr(0, 3) == "io=";
    const bool is_conn = target.substr(0, 5) == "conn=";
    if (is_conn) {
      // Connection rules have their own action vocabulary: drop / stall_ms.
      conn_fault_action action;
      for (std::size_t a = 1; a < segments.size(); ++a) {
        const std::string_view part = segments[a];
        if (part == "drop") {
          action.drop = true;
        } else if (part.substr(0, 9) == "stall_ms=") {
          action.stall_ms = parse_fault_delay(part.substr(9), rule);
        } else {
          SOFTSCHED_EXPECT(false, "fault spec: unknown conn action '" + std::string(part) +
                                      "' in rule '" + std::string(rule) +
                                      "' (expected drop or stall_ms=<float>)");
        }
      }
      plan.conns[parse_fault_index(target.substr(5), rule)] = action;
      continue;
    }
    disk_fault_action action; // superset: slot/shard rules use delay/fail only
    for (std::size_t a = 1; a < segments.size(); ++a) {
      const std::string_view part = segments[a];
      if (part == "fail") {
        action.fail = true;
      } else if (part == "torn") {
        SOFTSCHED_EXPECT(is_io, "fault spec: action 'torn' only applies to io=<n> targets "
                                "(rule '" + std::string(rule) + "')");
        action.torn = true;
      } else if (part.substr(0, 9) == "delay_ms=") {
        action.delay_ms = parse_fault_delay(part.substr(9), rule);
      } else {
        SOFTSCHED_EXPECT(false, "fault spec: unknown action '" + std::string(part) +
                                    "' in rule '" + std::string(rule) + "'");
      }
    }
    if (target.substr(0, 5) == "slot=") {
      plan.slots[parse_fault_index(target.substr(5), rule)] =
          fault_action{action.delay_ms, action.fail};
    } else if (target.substr(0, 6) == "shard=") {
      plan.shards[parse_fault_index(target.substr(6), rule)] =
          fault_action{action.delay_ms, action.fail};
    } else if (is_io) {
      plan.io.ops[parse_fault_index(target.substr(3), rule)] = action;
    } else {
      SOFTSCHED_EXPECT(false, "fault spec: unknown target '" + std::string(target) +
                                  "' (expected slot=<n>, shard=<n>, io=<n> or conn=<n>)");
    }
  }
  return plan;
}

fault_plan fault_plan::from_env() {
  const char* spec = std::getenv("SOFTSCHED_INJECT");
  if (spec == nullptr || *spec == '\0') return {};
  return parse(spec);
}

service::service(const service_options& options)
    : options_(options),
      jobs_(options.jobs < 1 ? thread_pool::hardware_workers()
                             : static_cast<unsigned>(options.jobs)),
      cache_(options.cache_bytes, options.cache_shards),
      contexts_(jobs_),
      started_at_(clock_type::now()) {
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (!options_.cache_dir.empty() && options_.disk_cache_bytes > 0) {
    disk_cache_options disk;
    disk.directory = options_.cache_dir;
    disk.byte_budget = options_.disk_cache_bytes;
    disk.faults = options_.faults.io;
    disk_ = std::make_unique<disk_cache>(disk);
  }
  pool_ = std::make_unique<thread_pool>(jobs_);
}

service::~service() {
  drain();
  pool_.reset();
}

bool service::submit(std::uint64_t seq, std::string text, callback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth = queue_depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.queue_capacity) {
    // Shed, don't queue: the rollback leaves admission state exactly as if
    // this request never arrived, and the caller answers "overloaded".
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::size_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  const auto admitted_at = clock_type::now();
  pool_->submit([this, seq, text = std::move(text), done = std::move(done), admitted_at] {
    process(seq, text, done, admitted_at);
  });
  return true;
}

response service::overloaded_response(std::uint64_t seq) const {
  response r;
  r.line = seq;
  r.id = "line" + std::to_string(seq);
  r.error = "overloaded";
  return r;
}

void service::complete(response r, const callback& done,
                       clock_type::time_point admitted_at) {
  latency_.record(millis_since(admitted_at));
  // The admission slot frees before the callback, so a client that bounds
  // itself by its own callbacks is never shed, even when it submits from
  // inside one.
  queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
  if (done) done(std::move(r));
  {
    // completed_ advances after the callback (drain() waits for callbacks)
    // and under the drain mutex, so drain()'s predicate and the notify can
    // never miss each other.
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    completed_.fetch_add(1, std::memory_order_release);
  }
  drained_.notify_all();
}

void service::drain() {
  const std::uint64_t target = admitted_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock,
                [&] { return completed_.load(std::memory_order_acquire) >= target; });
}

std::size_t service::flush_disk() { return disk_ != nullptr ? disk_->flush() : 0; }

std::shared_future<source_info> service::lookup_source(const request& req) {
  std::string sig = req.source_signature();
  std::unique_lock<std::mutex> lock(memo_mutex_);
  const auto it = source_memo_.find(sig);
  // A pending hash is always running: its first ask registered it inside
  // its own job, so a wait on it terminates.
  if (it != source_memo_.end()) return it->second;
  if (source_memo_.size() > memo_entry_limit ||
      source_memo_bytes_ > std::max<std::size_t>(options_.cache_bytes, 8ull << 20)) {
    source_memo_.clear();
    source_memo_bytes_ = 0;
  }
  std::promise<source_info> first;
  const std::shared_future<source_info> known = first.get_future().share();
  source_memo_bytes_ += sig.size() + sizeof(source_info) + 64;
  source_memo_.emplace(std::move(sig), known);
  lock.unlock();

  // The first ask hashes, outside the lock (the expensive part). A wipe
  // while it runs leaves the bytes below counted for a dropped entry: at
  // most one design per worker, which only brings the next wipe earlier.
  source_info info = hash_request_source(req);
  lock.lock();
  source_memo_bytes_ += info.error.size() + info.canonical_of.size() * sizeof(std::uint32_t);
  lock.unlock();
  first.set_value(std::move(info));
  return known;
}

void service::process(std::uint64_t seq, const std::string& text, const callback& done,
                      clock_type::time_point admitted_at) {
  response r;
  r.line = seq;
  r.id = "line" + std::to_string(seq);
  try {
    answer(seq, text, r);
  } catch (const std::exception& e) {
    // Pool jobs must not throw; any unexpected escape becomes an error
    // response so the request still completes and drain() still terminates.
    r.error = std::string("serve: internal error: ") + e.what();
    r.result = {};
  }
  if (!r.error.empty()) errors_.fetch_add(1, std::memory_order_relaxed);
  complete(std::move(r), done, admitted_at);
}

void service::answer(std::uint64_t seq, const std::string& text, response& r) {
  // -- worker-slot injection: a pure function of the sequence number, so
  //    tests can target "the request that lands on slot 0" regardless of
  //    which pool thread actually runs it -----------------------------------
  const unsigned slot = static_cast<unsigned>((seq > 0 ? seq - 1 : 0) % jobs_);
  const auto slot_rule = options_.faults.slots.find(slot);
  if (slot_rule != options_.faults.slots.end()) {
    sleep_ms(slot_rule->second.delay_ms);
    if (slot_rule->second.fail) {
      r.error = "injected fault: worker slot " + std::to_string(slot);
      return;
    }
  }

  // -- parse -----------------------------------------------------------------
  request req;
  try {
    req = parse_request_line(text);
  } catch (const json_error& e) {
    r.error = e.what();
    return;
  }
  if (!req.id.empty()) r.id = req.id;
  r.backend = req.backend;

  // -- canonical hash (memoized) + cache key ---------------------------------
  const std::shared_future<source_info> memo = lookup_source(req);
  const source_info& source = memo.get();
  if (!source.error.empty()) {
    r.error = source.error;
    return;
  }
  r.key = schedule_key_for(req, source.digest);

  // -- shard injection: a failed shard is *unavailable*, not fatal - its
  //    lookups miss and its inserts are dropped, so requests keep being
  //    served (recomputed), just degraded ----------------------------------
  bool shard_available = true;
  double shard_delay = 0;
  if (!options_.faults.shards.empty()) {
    const auto rule = options_.faults.shards.find(cache_.shard_index(r.key));
    if (rule != options_.faults.shards.end()) {
      shard_available = !rule->second.fail;
      shard_delay = rule->second.delay_ms;
    }
  }

  // -- join or lead the in-flight computation --------------------------------
  std::promise<schedule_cache::result_ptr> lead; // set iff this request leads
  std::shared_future<schedule_cache::result_ptr> outcome;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(flight_mutex_);
    const auto it = flights_.find(r.key);
    if (it != flights_.end()) {
      outcome = it->second;
    } else {
      outcome = lead.get_future().share();
      flights_.emplace(r.key, outcome);
      leader = true;
    }
  }

  // -- leader: cache consult, compute on miss, publish -----------------------
  schedule_cache::result_ptr result;
  bool from_cache = false;
  double compute_ms = 0;
  if (leader) {
    std::exception_ptr failure;
    try {
      sleep_ms(shard_delay);
      if (shard_available) result = cache_.lookup(r.key);
      if (result == nullptr && disk_ != nullptr) {
        // Read-through: a RAM miss consults the persistent tier; a disk
        // hit is promoted so the next ask is a RAM hit. The disk tier is
        // global (not sharded), so an injected shard failure only blocks
        // the promotion, never the read.
        result = disk_->lookup(r.key);
        if (result != nullptr && shard_available) cache_.insert(r.key, result);
      }
      from_cache = result != nullptr;
      if (!from_cache) {
        const auto t0 = clock_type::now();
        result = std::make_shared<const schedule_result>(
            compute_canonical_schedule(req, source.canonical_of, contexts_.local()));
        compute_ms = millis_since(t0);
        if (shard_available) cache_.insert(r.key, result);
        if (disk_ != nullptr) disk_->enqueue(r.key, result); // write-behind
      }
    } catch (...) {
      failure = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(flight_mutex_);
      flights_.erase(r.key);
    }
    if (failure) lead.set_exception(failure);
    else lead.set_value(result);
  }

  // A flight exists only while its leader is actively running (it
  // registers inside its own job), so a follower's wait always terminates.
  // The result comes straight off the flight - never a cache re-lookup,
  // which would miss when the value was oversize-rejected.
  try {
    result = outcome.get();
  } catch (const std::exception& e) {
    r.error = e.what();
    return;
  }
  r.result = result_to_source_order(*result, source.canonical_of);
  if (!leader) {
    deduped_.fetch_add(1, std::memory_order_relaxed);
  } else if (from_cache) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    computed_.fetch_add(1, std::memory_order_relaxed);
    r.ms = compute_ms;
  }
}

service_stats service::stats() const {
  service_stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.uptime_ms = millis_since(started_at_);
  s.qps = s.uptime_ms > 0 ? static_cast<double>(s.completed) / (s.uptime_ms / 1e3) : 0;
  s.p50_ms = latency_.percentile(50);
  s.p95_ms = latency_.percentile(95);
  s.p99_ms = latency_.percentile(99);
  const std::uint64_t served = s.completed - std::min(s.errors, s.completed);
  s.hit_rate = served > 0
                   ? static_cast<double>(s.cache_hits + s.deduped) / static_cast<double>(served)
                   : 0;
  if (disk_ != nullptr) {
    s.disk_enabled = true;
    s.disk = disk_->counters();
  }
  return s;
}

namespace {

/// Writes responses either immediately (streaming) or through a reorder
/// buffer that releases strictly by turn, 1, 2, 3, ... (input-order mode).
/// `write` puts one payload on the wire: a frame for the daemon, a line for
/// the batch session. Control frames (stats, transport errors, the
/// shutdown ack) always bypass the reorder buffer - they answer "now", not
/// "in turn". A failed write (peer gone) is sticky: subsequent payloads
/// are counted as produced but silently discarded, so workers finishing
/// after the client died still complete and the session still drains.
struct ordered_writer {
  using write_fn = std::function<bool(std::string_view)>;

  ordered_writer(write_fn w, bool order_responses)
      : write(std::move(w)), ordered(order_responses) {}

  write_fn write;
  bool ordered;
  std::mutex mutex;
  std::uint64_t next_turn = 1;
  std::map<std::uint64_t, std::string> held;
  std::uint64_t written = 0;
  bool failed = false;

  void send(std::string_view payload) {
    if (!failed && !write(payload)) failed = true;
    ++written;
  }

  /// Returns how many payloads this call put on the wire.
  std::size_t emit(std::uint64_t turn, std::string payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!ordered) {
      send(payload);
      return 1;
    }
    held.emplace(turn, std::move(payload));
    std::size_t released = 0;
    while (!held.empty() && held.begin()->first == next_turn) {
      send(held.begin()->second);
      held.erase(held.begin());
      ++next_turn;
      ++released;
    }
    return released;
  }

  void control(std::string_view payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    send(payload);
  }
};

/// A session's count of requests whose response is not yet written:
/// serve_connection and serve_batch wait on *their own* requests only, so
/// one dead or slow client can never make another client's drain wait on
/// it (service::drain() is global). Armed before submit, disarmed as the
/// response goes out - by the completion callback, or by the submitter
/// itself when the request was shed and the callback will never fire.
struct pending_gate {
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t outstanding = 0;

  void arm() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++outstanding;
  }
  /// Notifies while holding the lock: a waiter that sees zero may destroy
  /// the gate at once, so a notify after unlocking could touch a dead
  /// condition variable.
  void disarm(std::size_t n = 1) {
    const std::lock_guard<std::mutex> lock(mutex);
    outstanding -= n;
    changed.notify_all();
  }
  void wait_below(std::size_t bound) {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return outstanding < bound; });
  }
  void wait() { wait_below(1); }
};

/// Arms `unwritten` for one response and returns the callback that hands
/// it to `writer` for release in turn `turn`.
auto answer_in_turn(const service& svc, std::uint64_t turn, ordered_writer& writer,
                    pending_gate& unwritten) {
  unwritten.arm();
  // After an emit that released nothing, touch nothing: whoever released
  // this response may already have ended the session.
  return [&writer, &unwritten, turn,
          emit_schedule = svc.options().emit_schedule](const response& r) {
    const std::size_t released = writer.emit(turn, render_response_line(r, emit_schedule));
    if (released > 0) unwritten.disarm(released);
  };
}

/// Submits one request whose response `writer` releases in turn `turn`;
/// `unwritten` counts it until that response is on the wire. A shed
/// request is answered with the overloaded response in its turn.
void submit_in_turn(service& svc, std::uint64_t seq, std::uint64_t turn, std::string text,
                    ordered_writer& writer, pending_gate& unwritten) {
  const auto emit = answer_in_turn(svc, turn, writer, unwritten);
  if (!svc.submit(seq, std::move(text), emit)) emit(svc.overloaded_response(seq));
}

/// std::getline that holds at most `limit` bytes of a line: a longer line
/// is read to its newline without being kept, and reported by `too_long`
/// with `text` left empty. Returns false at the end of input.
bool getline_within(std::istream& in, std::string& text, std::size_t limit,
                    bool& too_long) {
  text.clear();
  too_long = false;
  bool extracted = false;
  char chunk[1 << 14];
  for (;;) {
    in.getline(chunk, sizeof chunk);
    if (in.bad()) return false;
    const auto got = static_cast<std::size_t>(in.gcount());
    extracted = extracted || got > 0;
    // getline fails when the chunk filled before a newline, stops without
    // one at the end of input, and otherwise counted the newline it took.
    const bool partial = in.fail() && !in.eof();
    const std::size_t kept = partial || in.eof() ? got : got - 1;
    // A partial chunk left failbit set; clear it before reading on, or the
    // next read extracts nothing.
    if (partial) in.clear(in.rdstate() & ~std::ios::failbit);
    if (text.size() + kept > limit) {
      too_long = true;
      text.clear();
      if (partial) in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      return true;
    }
    text.append(chunk, kept);
    if (!partial) return extracted;
  }
}

} // namespace

connection_summary serve_connection(byte_stream& stream, service& svc,
                                    const connection_options& options,
                                    connection_counters* counters) {
  connection_summary summary;
  ordered_writer writer([&stream](std::string_view p) { return write_frame(stream, p); },
                        options.ordered);
  pending_gate pending;
  std::uint64_t seq = 0;

  for (;;) {
    frame_read frame = read_frame(stream);
    if (frame.status == frame_status::eof) break;
    if (frame.status == frame_status::error) {
      // Framing is unrecoverable on this stream - after a malformed frame
      // we no longer know where the next one starts, so resynchronizing
      // silently would risk misattributing payloads. Answer once, stop
      // reading *this connection*, drain it, close. Other connections on
      // the same service are untouched.
      summary.end = connection_end::transport_error;
      if (counters != nullptr)
        counters->transport_errors.fetch_add(1, std::memory_order_relaxed);
      response r;
      r.id = "transport";
      r.error = frame.error;
      writer.control(render_response_line(r, svc.options().emit_schedule));
      break;
    }
    ++summary.frames;

    const control_frame control = classify_control(frame.payload);
    if (control.kind != control_kind::none) {
      switch (control.kind) {
      case control_kind::hello:
        writer.control(render_hello());
        break;
      case control_kind::stats: {
        connection_counters_snapshot conns =
            counters != nullptr ? snapshot(*counters) : connection_counters_snapshot{};
        connection_view self;
        self.frames = summary.frames;
        self.requests = summary.requests;
        self.bytes_in = stream.bytes_in();
        self.bytes_out = stream.bytes_out();
        self.transport = stream.label();
        // This connection's bytes fold into the aggregate only at close;
        // count the live ones so stats never under-reports the asker.
        conns.bytes_in += self.bytes_in;
        conns.bytes_out += self.bytes_out;
        writer.control(render_stats(svc.stats(), conns, self));
        break;
      }
      case control_kind::shutdown:
        summary.end = connection_end::shutdown_op;
        break; // drain below; the ack is this connection's final frame
      default:
        writer.control(render_unknown_op(control));
        break;
      }
      if (summary.end == connection_end::shutdown_op) break;
      continue;
    }

    ++seq;
    ++summary.requests;
    submit_in_turn(svc, seq, seq, std::move(frame.payload), writer, pending);
  }

  // Graceful drain: every request admitted on this connection answers
  // before it closes, whatever ended the read loop (EOF, shutdown,
  // transport error), and the write-behind queue is flushed to disk before
  // the final frame - a closing connection never strands warm entries.
  pending.wait();
  const std::size_t flushed = svc.flush_disk();
  if (summary.end == connection_end::shutdown_op)
    writer.control(render_shutdown_ack(flushed));
  summary.responses = writer.written;
  summary.write_failed = writer.failed;
  if (counters != nullptr) {
    counters->bytes_in.fetch_add(stream.bytes_in(), std::memory_order_relaxed);
    counters->bytes_out.fetch_add(stream.bytes_out(), std::memory_order_relaxed);
  }
  return summary;
}

std::uint64_t serve_batch(std::istream& in, std::ostream& out, service& svc,
                          std::uint64_t* rejected) {
  ordered_writer writer(
      [&out](std::string_view p) { return static_cast<bool>(out << p << '\n'); },
      /*order_responses=*/true);
  // Requests submitted but not yet written. Bounding them by the queue
  // capacity bounds the reorder buffer, and the service's queue depth too:
  // a slot frees before its callback, and a response is written no earlier
  // than its own callback.
  pending_gate unwritten;
  const std::size_t window = svc.options().queue_capacity;
  // A line is held under the same bound as a --serve frame.
  const std::size_t limit = frame_limits{}.max_frame_bytes;
  std::uint64_t turn = 0;
  std::size_t line_no = 0;
  std::string text;
  for (bool too_long = false; getline_within(in, text, limit, too_long);) {
    ++line_no;
    if (text.empty() && !too_long) continue;
    unwritten.wait_below(window);
    if (too_long) {
      response r;
      r.line = line_no;
      r.id = "line" + std::to_string(line_no);
      r.error = "request line exceeds the " + std::to_string(limit) + "-byte limit";
      answer_in_turn(svc, ++turn, writer, unwritten)(r);
      if (rejected != nullptr) ++*rejected;
    } else {
      submit_in_turn(svc, line_no, ++turn, std::move(text), writer, unwritten);
    }
  }
  unwritten.wait();
  return turn;
}

} // namespace softsched::serve
