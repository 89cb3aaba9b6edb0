// socket.h - TCP and Unix-domain transports for the resident daemon: the
// socket implementations of serve/transport.h's byte_stream and listener,
// plus the accept loop that runs serve_connection per client.
//
// Layering (docs/ARCHITECTURE.md "Serving"):
//
//   listener (tcp/unix) --accept()--> byte_stream     one per connection
//        socket_server  --thread----> serve_connection(stream, service)
//                                            |
//                                            v
//                                     serve::service   shared, untouched
//
// The server owns connection policy only: the --max-conns bound (beyond it
// a connection is answered with one framed "too_many_connections" +
// retry_after_ms and closed - connection-level shedding, the byte-level
// sibling of the service's queue shedding), conn=<n> fault injection
// (drop / stall the Nth accepted connection), and graceful teardown (a
// shutdown op on any connection stops the listener, half-closes every
// other connection's read side, and waits for each to drain). Everything
// about framing, control ops, and per-connection drain lives in
// serve_connection, shared verbatim with the stdio transport.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/daemon.h"
#include "serve/transport.h"

namespace softsched::serve {

/// A parsed --listen value: "stdio", "tcp:HOST:PORT" (PORT 0 = ephemeral,
/// resolved at bind and reported by listener::address()), or "unix:PATH".
struct listen_spec {
  enum class transport { stdio, tcp, unix_domain };

  transport kind = transport::stdio;
  std::string host;        ///< tcp: dotted IPv4 or "localhost"
  std::uint16_t port = 0;  ///< tcp
  std::string path;        ///< unix: filesystem path of the socket

  /// Parses the --listen grammar; throws precondition_error naming the
  /// accepted forms on anything else.
  [[nodiscard]] static listen_spec parse(std::string_view text);

  /// The spec back in --listen grammar.
  [[nodiscard]] std::string label() const;
};

/// Binds a listening socket for a tcp/unix spec (stdio has no listener).
/// Throws precondition_error when the address cannot be bound. A unix
/// listener unlinks a pre-existing socket file before binding and removes
/// its own on destruction.
[[nodiscard]] std::unique_ptr<listener> make_listener(const listen_spec& spec);

/// Client side: connects to a tcp/unix listener and returns the stream,
/// or null on failure (tests and the load harness retry). The stream's
/// finish_write() half-closes the write side, turning "client sent
/// everything" into the server's clean EOF.
[[nodiscard]] std::unique_ptr<byte_stream> connect_stream(const listen_spec& spec);

/// Connection policy of one socket_server. The connection shed frame's
/// retry hint is the service's own (service_options::retry_after_ms).
struct socket_server_options {
  std::size_t max_connections = 64; ///< open connections served at once
  connection_options connection;    ///< forwarded to serve_connection
};

/// What one server run did, summed over all its connections.
struct socket_server_summary {
  std::uint64_t frames = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool shutdown_requested = false; ///< some connection sent {"op":"shutdown"}
  connection_counters_snapshot conns;
};

/// The accept loop: one reader thread per accepted connection, all running
/// serve_connection against the shared service. run() blocks until a
/// client sends {"op":"shutdown"} or stop() is called, then tears down
/// gracefully: the listener stops, every open connection's read side is
/// half-closed (its client sees complete responses for everything already
/// submitted, then EOF), and every connection thread is joined.
class socket_server {
public:
  /// `accept_from` and `svc` must outlive the server. Connection faults
  /// come from the service's own fault plan (service_options.faults.conns).
  socket_server(listener& accept_from, service& svc, const socket_server_options& options);
  ~socket_server();

  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  /// Serves until shutdown; callable once.
  socket_server_summary run();

  /// Thread-safe external stop (the harness's clean end-of-run).
  void stop();

  /// Live transport counters (the stats "conns" object).
  [[nodiscard]] connection_counters& counters() noexcept;

private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

} // namespace softsched::serve
