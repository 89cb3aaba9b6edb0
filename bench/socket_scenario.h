// socket_scenario.h - the multi-client socket overload scenario: the
// open-loop zipf replay of load_scenario.h, but driven end-to-end over N
// real unix-socket connections against an in-process socket_server
// (serve/socket.h) instead of direct service submits - so the measured
// tail includes framing, the kernel socket path, per-connection reader
// threads, and the accept loop under connection churn.
//
// Phases (same mix and discipline as load_scenario.h):
//
//   1. warm      - every catalog entry once, directly into the service;
//   2. calibrate - closed-loop direct submits over a warm cache: the
//                  sustainable completion rate of the service core;
//   3. replay    - N client connections send the zipf mix open-loop at 2x
//                  the sustainable rate. Request i has the fixed arrival
//                  time t0 + i/rate; its latency is measured from that
//                  scheduled arrival to the moment its response frame is
//                  *read back off the socket* (matched by the request's
//                  unique id echo), so a stalled server or a slow socket
//                  shows up as tail latency (no coordinated omission).
//                  Every client rotates to a fresh connection every
//                  churn_every requests - sustained accept-path traffic,
//                  not one warm connection per client.
//
// SOFTSCHED_INJECT is honored: conn=<n> rules drop or stall chosen
// accepted connections (the nightly connection-churn storm leg); a client
// whose connection dies reconnects and carries on, counting the requests
// it could not deliver as dropped. The emitted block's "checks" (checks.h):
// bounded admission queue, bounded shed rate, bounded p99, zero transport
// and client-reader errors, every client accepted, and - in uninjected
// runs - every sent request answered exactly once. Its p99 and shed rate
// are also gated against the committed baseline.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "load_scenario.h"
#include "serve/daemon.h"
#include "serve/socket.h"
#include "serve_scenario.h"
#include "util/json.h"
#include "util/json_parse.h"

namespace softsched::bench {

/// Emits the whole scenario as the value of an already-written "socket"
/// key.
inline checks write_socket_scenario(json_writer& j, std::uint64_t seed) {
  using clock_type = std::chrono::steady_clock;
  const unsigned jobs = thread_pool::hardware_workers();
  constexpr unsigned connections = 8; ///< concurrent client connections
  constexpr int calibration_requests = 500;
  constexpr int replay_requests = 1200;
  constexpr int churn_every = 50; ///< requests per connection before rotating
  constexpr std::size_t queue_capacity = 64;
  constexpr double overload_factor = 2.0;
  // Shape limits, not speed limits (the baseline comparison owns speed).
  constexpr double p99_limit_ms = 1000.0;
  constexpr double shed_rate_limit = 0.9;

  serve::service_options sopt;
  sopt.jobs = static_cast<int>(jobs);
  sopt.queue_capacity = queue_capacity;
  sopt.emit_schedule = false;
  sopt.faults = serve::fault_plan::from_env();

  const std::vector<std::string> mix =
      make_serve_mix(seed, std::max(calibration_requests, replay_requests));

  // -- calibrate: closed-loop completion rate over a warm cache -----------
  double sustainable_rps = 0;
  {
    serve::service svc(sopt);
    warm_catalog(svc, seed);
    std::uint64_t seq = 1000000;
    const auto t0 = clock_type::now();
    for (int i = 0; i < calibration_requests; ++i)
      submit_blocking(svc, ++seq, mix[static_cast<std::size_t>(i)], {});
    svc.drain();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
    sustainable_rps = wall_ms > 0 ? calibration_requests / (wall_ms / 1e3) : 0;
  }
  const double target_rps = std::max(1.0, sustainable_rps * overload_factor);

  // -- replay: N socket clients, open-loop at 2x sustainable ---------------
  const serve::listen_spec spec = serve::listen_spec::parse(
      "unix:/tmp/softsched_socket_bench_" + std::to_string(::getpid()) + ".sock");
  const std::unique_ptr<serve::listener> lis = serve::make_listener(spec);
  serve::service svc(sopt);
  warm_catalog(svc, seed);
  serve::socket_server_options server_opt;
  server_opt.max_connections = connections + 1; // headroom for churn overlap
  serve::socket_server server(*lis, svc, server_opt);
  serve::socket_server_summary server_summary;
  std::thread server_thread([&] { server_summary = server.run(); });

  // Arrival times are fixed up front: open-loop means request i arrives at
  // t0 + i/rate no matter how the server is doing.
  const auto start = clock_type::now() + std::chrono::milliseconds(20);
  std::vector<clock_type::time_point> scheduled(replay_requests);
  for (int i = 0; i < replay_requests; ++i)
    scheduled[static_cast<std::size_t>(i)] =
        start + std::chrono::duration_cast<clock_type::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / target_rps));

  std::vector<double> latency_ms(replay_requests, -1);
  std::atomic<std::uint64_t> responses{0}, shed{0}, error_responses{0},
      conn_shed{0}, dropped{0}, reconnects{0};
  // Client-reader telemetry, emitted as the "client" block: when delivery
  // ever falls short, these counters say where the frames went (skipped as
  // control / unparseable / out-of-range line vs. a reader that died on a
  // framing error) instead of leaving only an opaque "unanswered" total.
  std::atomic<std::uint64_t> frames_read{0}, parse_skips{0}, control_skips{0},
      range_skips{0}, clean_eofs{0}, reader_errors{0};

  // Every response frame - real or shed - carries the per-connection
  // "line" number (shed responses cannot echo the request id: admission
  // control refuses them without ever parsing the text). The writer
  // records which global request each line of the current session carried,
  // and the reader matches responses back through that map.
  struct line_map {
    std::mutex mutex;
    std::vector<int> by_line; ///< line n on this session = request by_line[n-1]
  };
  const auto read_session = [&](serve::byte_stream* stream,
                                std::shared_ptr<line_map> lines) {
    for (;;) {
      const serve::frame_read f = serve::read_frame(*stream);
      if (f.status != serve::frame_status::ok) {
        (f.status == serve::frame_status::eof ? clean_eofs : reader_errors)
            .fetch_add(1, std::memory_order_relaxed);
        break;
      }
      frames_read.fetch_add(1, std::memory_order_relaxed);
      json_value v;
      try {
        v = parse_json(f.payload);
      } catch (const std::exception&) {
        parse_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const json_value* line = v.find("line");
      if (line == nullptr || !line->is_number()) {
        control_skips.fetch_add(1, std::memory_order_relaxed);
        // control frames: the connection-level shed answer, if any
        if (const json_value* e = v.find("error");
            e != nullptr && e->is_string() && e->as_string() == "too_many_connections")
          conn_shed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int k = -1;
      {
        const std::lock_guard<std::mutex> lock(lines->mutex);
        const auto n = static_cast<std::size_t>(line->as_number());
        if (n >= 1 && n <= lines->by_line.size())
          k = lines->by_line[n - 1];
      }
      if (k < 0) {
        range_skips.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      responses.fetch_add(1, std::memory_order_relaxed);
      if (const json_value* e = v.find("error"); e != nullptr && e->is_string()) {
        if (e->as_string() == "overloaded") {
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        error_responses.fetch_add(1, std::memory_order_relaxed);
      }
      latency_ms[static_cast<std::size_t>(k)] =
          std::chrono::duration<double, std::milli>(clock_type::now() -
                                                    scheduled[static_cast<std::size_t>(k)])
              .count();
    }
  };

  const auto run_client = [&](unsigned client) {
    struct session {
      std::unique_ptr<serve::byte_stream> stream;
      std::shared_ptr<line_map> lines;
      std::thread reader;
    };
    session sess;
    const auto close_session = [&] {
      if (sess.stream != nullptr) sess.stream->finish_write();
      if (sess.reader.joinable()) sess.reader.join();
      sess.stream.reset();
      sess.lines.reset();
    };
    const auto open_session = [&] {
      for (int attempt = 0; attempt < 20 && sess.stream == nullptr; ++attempt) {
        sess.stream = serve::connect_stream(spec);
        if (sess.stream == nullptr)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (sess.stream != nullptr) {
        sess.lines = std::make_shared<line_map>();
        sess.reader = std::thread(read_session, sess.stream.get(), sess.lines);
      }
    };
    // One delivery retry on a fresh connection: an injected conn= drop (or
    // a shed accept) kills the session, not the client.
    const auto send_line = [&](int i) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (sess.stream == nullptr) {
          open_session();
          if (attempt > 0) reconnects.fetch_add(1, std::memory_order_relaxed);
        }
        if (sess.stream != nullptr) {
          // Record the line -> request mapping *before* sending: the
          // response can race back before this thread resumes.
          {
            const std::lock_guard<std::mutex> lock(sess.lines->mutex);
            sess.lines->by_line.push_back(i);
          }
          if (serve::write_frame(*sess.stream, mix[static_cast<std::size_t>(i)]))
            return true;
          {
            const std::lock_guard<std::mutex> lock(sess.lines->mutex);
            sess.lines->by_line.pop_back(); // never reached the server
          }
        }
        close_session();
      }
      return false;
    };
    int sent_in_session = 0;
    for (int i = static_cast<int>(client); i < replay_requests;
         i += static_cast<int>(connections)) {
      std::this_thread::sleep_until(scheduled[static_cast<std::size_t>(i)]);
      if (!send_line(i)) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (++sent_in_session >= churn_every) {
        close_session(); // connection churn: drain, EOF, reconnect fresh
        sent_in_session = 0;
      }
    }
    close_session();
  };

  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) clients.emplace_back(run_client, c);
  for (std::thread& t : clients) t.join();
  server.stop();
  server_thread.join();
  svc.drain();
  const double replay_wall_ms = std::chrono::duration<double, std::milli>(
                                    clock_type::now() - start)
                                    .count();
  const serve::service_stats stats = svc.stats();

  std::vector<double> sorted;
  sorted.reserve(latency_ms.size());
  for (const double l : latency_ms)
    if (l >= 0) sorted.push_back(l);
  std::sort(sorted.begin(), sorted.end());

  const auto completed = static_cast<std::uint64_t>(sorted.size());
  const std::uint64_t unanswered =
      static_cast<std::uint64_t>(replay_requests) - responses.load() - dropped.load();
  const double shed_rate = static_cast<double>(shed.load()) / replay_requests;
  const double goodput_rps =
      replay_wall_ms > 0 ? static_cast<double>(completed) / (replay_wall_ms / 1e3) : 0;
  const double p50 = sorted_percentile(sorted, 50);
  const double p95 = sorted_percentile(sorted, 95);
  const double p99 = sorted_percentile(sorted, 99);
  const bool injected = !sopt.faults.empty();

  j.begin_object();
  j.member("transport", spec.label());
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("connections", static_cast<unsigned long long>(connections));
  j.member("churn_every", static_cast<long long>(churn_every));
  j.member("queue_capacity", queue_capacity);
  j.member("calibration_requests", static_cast<long long>(calibration_requests));
  j.member("replay_requests", static_cast<long long>(replay_requests));
  j.member("sustainable_rps", sustainable_rps);
  j.member("overload_factor", overload_factor);
  j.member("target_rps", target_rps);
  j.member("completed", completed);
  j.member("responses", responses.load());
  j.member("shed", shed.load());
  j.member("shed_rate", shed_rate);
  j.member("dropped", dropped.load());
  j.member("unanswered", unanswered);
  j.member("reconnects", reconnects.load());
  j.member("goodput_rps", goodput_rps);
  j.member("p50_ms", p50);
  j.member("p95_ms", p95);
  j.member("p99_ms", p99);
  j.member("p99_limit_ms", p99_limit_ms);
  j.member("shed_rate_limit", shed_rate_limit);
  j.member("max_ms", sorted.empty() ? 0.0 : sorted.back());
  j.member("peak_queue_depth", stats.peak_queue_depth);
  j.member("hit_rate", stats.hit_rate);
  j.member("error_responses", error_responses.load());
  j.member("injected", injected);
  j.key("client");
  j.begin_object();
  j.member("frames_read", frames_read.load());
  j.member("parse_skips", parse_skips.load());
  j.member("control_skips", control_skips.load());
  j.member("range_skips", range_skips.load());
  j.member("clean_eofs", clean_eofs.load());
  j.member("reader_errors", reader_errors.load());
  j.end_object();
  j.key("conns");
  j.begin_object();
  j.member("accepted", server_summary.conns.accepted);
  j.member("shed", server_summary.conns.shed);
  j.member("shed_seen_by_clients", conn_shed.load());
  j.member("closed", server_summary.conns.closed);
  j.member("faulted", server_summary.conns.faulted);
  j.member("transport_errors", server_summary.conns.transport_errors);
  j.member("bytes_in", server_summary.conns.bytes_in);
  j.member("bytes_out", server_summary.conns.bytes_out);
  j.end_object();
  // Uninjected, delivery must be lossless: nothing dropped, every sent
  // request answered exactly once. Injected runs lose exactly what the
  // fault plan kills - the point is that they lose nothing else (covered
  // by the per-response accounting above never double-counting).
  return end_block(
      j, {{"queue_bounded", stats.peak_queue_depth <= queue_capacity},
          {"goodput_ok", goodput_rps > 0},
          {"p99_ok", p99 <= p99_limit_ms},
          {"shed_rate_ok", shed_rate <= shed_rate_limit},
          {"no_transport_errors", server_summary.conns.transport_errors == 0},
          {"no_reader_errors", reader_errors.load() == 0},
          {"all_clients_accepted", server_summary.conns.accepted >= connections},
          {"delivery_ok", injected || (dropped.load() == 0 && unanswered == 0)}});
}

} // namespace softsched::bench
