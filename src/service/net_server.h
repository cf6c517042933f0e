// Socket front end for the murphyd line protocol (DESIGN.md §12).
//
// One epoll event-loop thread serves a TCP listener (loopback) and/or a
// unix-domain listener. Requests are newline-framed and fully pipelined: a
// client may write any number of commands without waiting, immediate verbs
// are answered in order, and DIAGNOSE completions are delivered by the
// worker that finishes them — out of order across a connection's in-flight
// window, correlated by the protocol's '#tag' prefix (protocol.h). The
// blocking `fut.get()` of the stdio loop never happens here; the event loop
// thread only parses, dispatches, and shuttles bytes.
//
// Backpressure (never unbounded memory):
//   * per-connection in-flight limit — commands beyond
//     `max_inflight_per_conn` outstanding responses are answered
//     immediately with an `ERR rejected_conn_inflight_full` line, the
//     connection-level analogue of the service queue's kRejectedQueueFull;
//   * per-connection write-buffer cap — a connection whose unread responses
//     exceed `max_outbuf_bytes` stops being read (natural TCP backpressure)
//     until the client drains it, so the buffer is bounded by
//     max_outbuf_bytes + max_inflight_per_conn responses;
//   * line-length cap — an unterminated or oversized command line answers
//     `ERR line too long` and closes the connection (framing is lost);
//   * connection cap — accepts beyond `max_connections` are answered
//     `ERR server full` and closed.
//
// Graceful drain: shutdown() stops accepting, stops reading every
// connection, lets the already-admitted diagnoses settle (their completions
// still deliver), flushes each connection's write buffer and closes it. A
// connection that will not drain within `drain_timeout_ms` is force-closed.
// shutdown() joins the loop thread and is idempotent; the destructor calls
// it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "src/service/protocol.h"

namespace murphy::service {

struct NetServerOptions {
  // Unix-domain listener path; empty = no unix listener. An existing
  // socket file at the path is replaced.
  std::string unix_path;
  // TCP listener port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral
  // (read the bound port back with tcp_port()).
  int tcp_port = -1;
  std::size_t max_connections = 64;
  // Outstanding responses (commands dispatched, response not yet queued)
  // per connection before ERR rejected_conn_inflight_full.
  std::size_t max_inflight_per_conn = 32;
  std::size_t max_line_bytes = 64 * 1024;
  std::size_t max_outbuf_bytes = 1 << 20;
  // Force-close bound for shutdown()'s graceful drain.
  long drain_timeout_ms = 10000;
};

class NetServer {
 public:
  // The protocol (and everything behind it) must outlive the server's
  // shutdown(); the completion plumbing itself is lifetime-safe past that
  // (late sinks land in a refcounted queue, not in the server).
  NetServer(Protocol& proto, NetServerOptions opts);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds the configured listeners and spawns the loop thread. False (with
  // *error set) on any bind/listen failure; no partial listeners survive.
  [[nodiscard]] bool start(std::string* error = nullptr);

  // Actual bound TCP port (resolves port 0), -1 when no TCP listener.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }

  // Graceful drain, then joins the loop thread. Safe to call repeatedly
  // and without start().
  void shutdown();

  // Live connection count / total ever accepted (tests, STATS forensics).
  [[nodiscard]] std::size_t active_connections() const {
    return active_.load();
  }
  [[nodiscard]] std::uint64_t accepted_connections() const {
    return accepted_.load();
  }

 private:
  struct Conn;
  struct CompletionQueue;
  class Loop;

  Protocol& proto_;
  NetServerOptions opts_;
  int bound_tcp_port_ = -1;
  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::shared_ptr<CompletionQueue> cq_;
  std::thread loop_thread_;
  bool started_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace murphy::service
