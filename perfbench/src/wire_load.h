// Open- and closed-loop load over murphyd's line protocol on a unix socket.
//
// Open loop: the schedule is fixed before the first send. Request i is due
// at `due_ns[i]` whether or not earlier requests have been answered, so a
// stalled server makes later requests wait and that wait is counted
// (latency is timed from the due time, not from the send). Closed loop:
// each caller waits for its response before it sends again. Either way,
// requests are dealt round-robin over `connections` client connections
// and tagged "#<index>"; one thread per connection both sends and reads
// the responses, so the generator never uses more threads than
// connections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct WireRequest {
  std::string command;  // e.g. "DIAGNOSE client-B latency 4 10000"
  std::int64_t due_ns = 0;
};

struct WireOutcome {
  std::int64_t send_ns = 0;  // 0 = never sent (connection failed)
  std::int64_t recv_ns = 0;  // first response line; 0 = unanswered
  std::uint32_t responses = 0;
  std::string line;          // first response line, tag stripped
};

// Sends every request on its schedule and collects responses until each
// has one or `drain_deadline_ns` passes. Tags are "#<index>"; the outcome
// vector is index-aligned with `requests`.
[[nodiscard]] std::vector<WireOutcome> run_open_loop(
    const std::string& socket_path, const std::vector<WireRequest>& requests,
    std::size_t connections, std::int64_t drain_deadline_ns);

// Closed-loop load: `connections` callers, each with one request in flight.
// Caller c sends commands[i % commands.size()] for i = c, c + n, c + 2n, ...
// (n = connections), each as soon as the previous one is answered, and
// sends none after `until_ns`. Outcome i belongs to request i; the last
// round may hold unsent requests (send_ns == 0).
[[nodiscard]] std::vector<WireOutcome> run_closed_loop(
    const std::string& socket_path, const std::vector<std::string>& commands,
    std::size_t connections, std::int64_t until_ns,
    std::int64_t drain_deadline_ns);

}  // namespace perfbench
