#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "util/check.h"

namespace softsched::serve {

namespace {

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// A --listen grammar check. The message names the flag and carries no
/// source location, because the CLI prints it as a usage error.
void expect_listen(bool ok, const std::string& message) {
  if (!ok) throw precondition_error("--listen: " + message);
}

std::uint16_t parse_port(std::string_view text, std::string_view spec) {
  bool ok = !text.empty() && text.size() <= 5;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  expect_listen(ok && value <= 65535, "bad tcp port in '" + std::string(spec) + "'");
  return static_cast<std::uint16_t>(value);
}

/// One connected socket as a byte_stream. Reads are buffered (the frame
/// codec consumes length lines byte by byte); writes go straight to
/// send() with MSG_NOSIGNAL, so a vanished peer is an error return, never
/// a SIGPIPE. shutdown_read()/finish_write() map to the two half-closes.
class socket_stream final : public byte_stream {
public:
  socket_stream(int fd, std::string label) : fd_(fd), label_(std::move(label)) {}
  ~socket_stream() override { close_fd(fd_); }

  socket_stream(const socket_stream&) = delete;
  socket_stream& operator=(const socket_stream&) = delete;

  int get() override {
    if (pos_ == end_ && !fill()) return -1;
    return static_cast<unsigned char>(buffer_[pos_++]);
  }

  bool read_exact(char* dst, std::size_t n) override {
    std::size_t copied = 0;
    while (copied < n) {
      if (pos_ == end_ && !fill()) return false;
      const std::size_t take = std::min(n - copied, end_ - pos_);
      std::memcpy(dst + copied, buffer_ + pos_, take);
      pos_ += take;
      copied += take;
    }
    return true;
  }

  bool write_all(std::string_view data) override {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
      count_out(static_cast<std::size_t>(n));
    }
    return true;
  }

  bool flush() override { return true; } // send() is unbuffered here

  std::string label() const override { return label_; }

  void shutdown_read() override { ::shutdown(fd_, SHUT_RD); }
  void finish_write() override { ::shutdown(fd_, SHUT_WR); }

private:
  bool fill() {
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer_, sizeof buffer_, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false; // EOF or error: both end the read side
      count_in(static_cast<std::size_t>(n));
      pos_ = 0;
      end_ = static_cast<std::size_t>(n);
      return true;
    }
  }

  int fd_;
  char buffer_[4096];
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::string label_;
};

std::string peer_label(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.ss_family == AF_INET) {
    const auto* in = reinterpret_cast<const sockaddr_in*>(&addr);
    char host[INET_ADDRSTRLEN] = {};
    if (::inet_ntop(AF_INET, &in->sin_addr, host, sizeof host) != nullptr)
      return std::string("tcp:") + host + ":" + std::to_string(ntohs(in->sin_port));
  }
  return "socket";
}

/// Common accept machinery: shutdown() half-closes the listening fd, which
/// makes a blocked accept() return an error on Linux; the stopped flag
/// turns that error into the clean "no more clients" null.
class fd_listener : public listener {
public:
  fd_listener(int fd, std::string address) : fd_(fd), address_(std::move(address)) {}
  ~fd_listener() override { close_fd(fd_); }

  std::unique_ptr<byte_stream> accept() override {
    for (;;) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn >= 0) return wrap(conn);
      if (errno == EINTR || errno == ECONNABORTED) {
        if (stopped_.load(std::memory_order_acquire)) return nullptr;
        continue;
      }
      return nullptr; // stopped, or the listener itself failed
    }
  }

  void shutdown() override {
    stopped_.store(true, std::memory_order_release);
    ::shutdown(fd_, SHUT_RDWR);
  }

  std::string address() const override { return address_; }

protected:
  [[nodiscard]] virtual std::unique_ptr<byte_stream> wrap(int conn_fd) = 0;

private:
  int fd_;
  std::string address_;
  std::atomic<bool> stopped_{false};
};

class tcp_listener final : public fd_listener {
public:
  using fd_listener::fd_listener;

protected:
  std::unique_ptr<byte_stream> wrap(int conn_fd) override {
    const int one = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::make_unique<socket_stream>(conn_fd, peer_label(conn_fd));
  }
};

class unix_listener final : public fd_listener {
public:
  unix_listener(int fd, std::string address, std::string path)
      : fd_listener(fd, std::move(address)), path_(std::move(path)) {}
  ~unix_listener() override { ::unlink(path_.c_str()); }

protected:
  std::unique_ptr<byte_stream> wrap(int conn_fd) override {
    return std::make_unique<socket_stream>(conn_fd, "unix:" + path_);
  }

private:
  std::string path_;
};

in_addr resolve_host(const std::string& host, std::string_view spec) {
  in_addr addr{};
  const std::string name = host == "localhost" ? "127.0.0.1" : host;
  expect_listen(::inet_pton(AF_INET, name.c_str(), &addr) == 1,
                "bad tcp host '" + host + "' in '" + std::string(spec) +
                    "' (dotted IPv4 or localhost)");
  return addr;
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  expect_listen(path.size() < sizeof addr.sun_path,
                "unix socket path longer than " + std::to_string(sizeof addr.sun_path - 1) +
                    " bytes: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

} // namespace

listen_spec listen_spec::parse(std::string_view text) {
  listen_spec spec;
  if (text == "stdio") return spec;
  if (text.substr(0, 4) == "tcp:") {
    spec.kind = transport::tcp;
    const std::string_view rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    expect_listen(colon != std::string_view::npos && colon > 0,
                  "expected tcp:HOST:PORT, got '" + std::string(text) + "'");
    spec.host = std::string(rest.substr(0, colon));
    spec.port = parse_port(rest.substr(colon + 1), text);
    (void)resolve_host(spec.host, text);
    return spec;
  }
  if (text.substr(0, 5) == "unix:") {
    spec.kind = transport::unix_domain;
    spec.path = std::string(text.substr(5));
    expect_listen(!spec.path.empty(), "expected unix:PATH, got '" + std::string(text) + "'");
    (void)unix_address(spec.path);
    return spec;
  }
  expect_listen(false, "unknown transport '" + std::string(text) +
                           "' (expected stdio, tcp:HOST:PORT or unix:PATH)");
  return spec; // unreachable
}

std::string listen_spec::label() const {
  switch (kind) {
  case transport::tcp:
    return "tcp:" + host + ":" + std::to_string(port);
  case transport::unix_domain:
    return "unix:" + path;
  default:
    return "stdio";
  }
}

std::unique_ptr<listener> make_listener(const listen_spec& spec) {
  SOFTSCHED_EXPECT(spec.kind != listen_spec::transport::stdio,
                   "make_listener: stdio is an iostream_listener over the caller's streams");
  if (spec.kind == listen_spec::transport::tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SOFTSCHED_EXPECT(fd >= 0, "--listen: socket() failed: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = resolve_host(spec.host, spec.label());
    addr.sin_port = htons(spec.port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 128) != 0) {
      const std::string why = std::strerror(errno);
      close_fd(fd);
      SOFTSCHED_EXPECT(false, "--listen: cannot bind " + spec.label() + ": " + why);
    }
    // Ephemeral port (tcp:HOST:0): report what the kernel picked.
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    std::uint16_t port = spec.port;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      port = ntohs(bound.sin_port);
    return std::make_unique<tcp_listener>(fd, "tcp:" + spec.host + ":" + std::to_string(port));
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SOFTSCHED_EXPECT(fd >= 0, "--listen: socket() failed: " + std::string(std::strerror(errno)));
  const sockaddr_un addr = unix_address(spec.path);
  ::unlink(spec.path.c_str()); // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(fd);
    SOFTSCHED_EXPECT(false, "--listen: cannot bind " + spec.label() + ": " + why);
  }
  return std::make_unique<unix_listener>(fd, spec.label(), spec.path);
}

std::unique_ptr<byte_stream> connect_stream(const listen_spec& spec) {
  if (spec.kind == listen_spec::transport::tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = resolve_host(spec.host, spec.label());
    addr.sin_port = htons(spec.port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd(fd);
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::make_unique<socket_stream>(fd, spec.label());
  }
  if (spec.kind == listen_spec::transport::unix_domain) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    const sockaddr_un addr = unix_address(spec.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd(fd);
      return nullptr;
    }
    return std::make_unique<socket_stream>(fd, spec.label());
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// socket_server

struct socket_server::impl {
  struct connection {
    std::unique_ptr<byte_stream> stream;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  listener& accept_from;
  service& svc;
  socket_server_options options;

  connection_counters counters;
  std::atomic<bool> stopping{false};

  std::mutex mutex; // guards connections + the summed counters below
  std::list<connection> connections;
  std::uint64_t frames = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool shutdown_requested = false;

  impl(listener& l, service& s, const socket_server_options& o)
      : accept_from(l), svc(s), options(o) {
    counters.transport = l.address();
  }

  void serve_one(connection& conn, const conn_fault_action* fault) {
    if (fault != nullptr && fault->stall_ms > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(fault->stall_ms));
    const connection_summary s =
        serve_connection(*conn.stream, svc, options.connection, &counters);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      frames += s.frames;
      requests += s.requests;
      responses += s.responses;
      if (s.end == connection_end::shutdown_op) shutdown_requested = true;
    }
    if (s.end == connection_end::shutdown_op) stop();
    // The conversation is over: half-close the write side now so the
    // client sees EOF immediately (the fd itself lives until this node
    // is reaped or the server tears down).
    conn.stream->finish_write();
    counters.active.fetch_sub(1, std::memory_order_acq_rel);
    counters.closed.fetch_add(1, std::memory_order_relaxed);
    // Last touch of `conn`: once finished is set, the accept loop may
    // reap (join + destroy) this node at any moment.
    conn.finished.store(true, std::memory_order_release);
  }

  /// Joins connection threads that already finished, bounding the live
  /// thread list under connection churn. Splices them out under the lock
  /// but joins outside it - a finishing thread may itself be waiting on
  /// the mutex (or calling stop()) on its way out.
  void reap_finished() {
    std::list<connection> done;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      for (auto it = connections.begin(); it != connections.end();) {
        const auto next = std::next(it);
        if (it->finished.load(std::memory_order_acquire))
          done.splice(done.end(), connections, it);
        it = next;
      }
    }
    for (connection& conn : done)
      if (conn.thread.joinable()) conn.thread.join();
  }

  void stop() {
    stopping.store(true, std::memory_order_release);
    accept_from.shutdown();
    const std::lock_guard<std::mutex> lock(mutex);
    for (connection& conn : connections)
      if (!conn.finished.load(std::memory_order_acquire)) conn.stream->shutdown_read();
  }
};

socket_server::socket_server(listener& accept_from, service& svc,
                             const socket_server_options& options)
    : impl_(std::make_unique<impl>(accept_from, svc, options)) {}

socket_server::~socket_server() = default;

void socket_server::stop() { impl_->stop(); }

connection_counters& socket_server::counters() noexcept { return impl_->counters; }

socket_server_summary socket_server::run() {
  impl& d = *impl_;
  const auto& conn_faults = d.svc.options().faults.conns;
  unsigned accept_index = 0;

  while (!d.stopping.load(std::memory_order_acquire)) {
    std::unique_ptr<byte_stream> stream = d.accept_from.accept();
    if (stream == nullptr) break;
    d.reap_finished();
    ++accept_index;
    d.counters.accepted.fetch_add(1, std::memory_order_relaxed);

    const auto fault_it = conn_faults.find(accept_index);
    const conn_fault_action* fault =
        fault_it != conn_faults.end() ? &fault_it->second : nullptr;
    if (fault != nullptr && fault->drop) {
      // The injected mid-flight client death, server side: close without
      // reading a byte. The stream destructor closes the fd; the client
      // sees a reset/EOF, the service never hears about it.
      d.counters.faulted.fetch_add(1, std::memory_order_relaxed);
      d.counters.closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    // Connection-level admission control: beyond --max-conns the client
    // gets one framed shed answer with a retry hint, then the door closes.
    const std::uint64_t active =
        d.counters.active.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (active > d.options.max_connections) {
      d.counters.active.fetch_sub(1, std::memory_order_acq_rel);
      d.counters.shed.fetch_add(1, std::memory_order_relaxed);
      (void)write_frame(*stream, render_connection_shed());
      d.counters.bytes_out.fetch_add(stream->bytes_out(), std::memory_order_relaxed);
      d.counters.closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    const std::lock_guard<std::mutex> lock(d.mutex);
    auto& conn = d.connections.emplace_back();
    conn.stream = std::move(stream);
    conn.thread = std::thread([&d, &conn, fault] { d.serve_one(conn, fault); });
  }

  // Teardown: no new clients, half-close every open read side so each
  // connection drains what it admitted and closes, then join everything.
  d.stop();
  for (;;) {
    std::unique_lock<std::mutex> lock(d.mutex);
    if (d.connections.empty()) break;
    impl::connection& conn = d.connections.front();
    lock.unlock();
    if (conn.thread.joinable()) conn.thread.join();
    lock.lock();
    d.connections.pop_front();
  }

  socket_server_summary summary;
  {
    const std::lock_guard<std::mutex> lock(d.mutex);
    summary.frames = d.frames;
    summary.requests = d.requests;
    summary.responses = d.responses;
    summary.shutdown_requested = d.shutdown_requested;
  }
  summary.conns = snapshot(d.counters);
  return summary;
}

} // namespace softsched::serve
