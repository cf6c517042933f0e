#include "perfbench/src/wire_load.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string_view>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof addr.sun_path) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// "#<i> <command>\n"
std::string frame(std::size_t i, const std::string& command) {
  std::string framed = "#";
  framed += std::to_string(i);
  framed += ' ';
  framed += command;
  framed += '\n';
  return framed;
}

// Waits up to wait_ns for fd to become readable, with ppoll's nanosecond
// timeout: a millisecond poll() would round every send up to the next whole
// millisecond (or spin to avoid it).
bool wait_readable(int fd, std::int64_t wait_ns) {
  wait_ns = std::max<std::int64_t>(0, wait_ns);
  const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                    static_cast<long>(wait_ns % 1'000'000'000)};
  pollfd pfd{fd, POLLIN, 0};
  return ::ppoll(&pfd, 1, &ts, nullptr) > 0;
}

// Appends received bytes to `buf` and records each complete line
// "#<i> <response>" against outcome(i). A line whose tag names no request
// of this connection (outcome returns nullptr) is recorded against
// nothing; the caller sees it as a missing response. Returns how many
// requests got their first response.
template <typename OutcomeOf>
std::size_t take_lines(std::string& buf, const char* data, std::size_t len,
                       std::int64_t recv_at, OutcomeOf outcome_of) {
  buf.append(data, len);
  std::size_t first = 0;
  std::size_t start = 0;
  for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    const std::string_view line(buf.data() + start, nl - start);
    const std::size_t sp = line.find(' ');
    std::size_t idx = SIZE_MAX;
    if (line.size() > 1 && line[0] == '#' && sp != std::string_view::npos)
      std::from_chars(line.data() + 1, line.data() + sp, idx);
    WireOutcome* o = idx == SIZE_MAX ? nullptr : outcome_of(idx);
    if (o == nullptr) continue;
    if (o->responses++ == 0) {
      o->recv_ns = recv_at;
      o->line = std::string(line.substr(sp + 1));
      ++first;
    }
  }
  buf.erase(0, start);
  return first;
}

// One connection's share of the schedule: indices i with i % n == c.
void drive_connection(const std::string& path,
                      const std::vector<WireRequest>& requests,
                      std::vector<WireOutcome>& out, std::size_t c,
                      std::size_t n, std::int64_t drain_deadline_ns) {
  const int fd = connect_unix(path);
  if (fd < 0) return;  // every request of this share stays unsent
  std::vector<std::size_t> mine;
  for (std::size_t i = c; i < requests.size(); i += n) mine.push_back(i);

  std::string buf;
  std::size_t next = 0;
  std::size_t answered = 0;
  std::int64_t stray_until = 0;  // short grace read for late duplicates
  char tmp[16384];
  for (;;) {
    const std::int64_t now = now_ns();
    if (next < mine.size() && now >= requests[mine[next]].due_ns) {
      const std::size_t i = mine[next++];
      out[i].send_ns = now_ns();
      if (!send_all(fd, frame(i, requests[i].command))) break;
      continue;
    }
    if (next == mine.size() && answered == mine.size()) {
      if (stray_until == 0) stray_until = now + 20'000'000;
      if (now >= stray_until) break;
    }
    if (now >= drain_deadline_ns) break;
    std::int64_t wait_ns = drain_deadline_ns - now;
    if (next < mine.size())
      wait_ns = std::min(wait_ns, requests[mine[next]].due_ns - now);
    if (stray_until != 0) wait_ns = std::min(wait_ns, stray_until - now);
    if (!wait_readable(fd, wait_ns)) continue;
    const ssize_t r = ::recv(fd, tmp, sizeof tmp, 0);
    if (r <= 0) break;
    answered += take_lines(
        buf, tmp, static_cast<std::size_t>(r), now_ns(),
        [&](std::size_t idx) -> WireOutcome* {
          return idx < requests.size() && idx % n == c ? &out[idx] : nullptr;
        });
  }
  ::close(fd);
}

// One closed-loop caller: sends commands[i % commands.size()] for
// i = c, c + n, c + 2n, ..., each as soon as the previous one is answered,
// until until_ns. out[k] is the outcome of i = k * n + c.
void drive_closed(const std::string& path,
                  const std::vector<std::string>& commands,
                  std::vector<WireOutcome>& out, std::size_t c,
                  std::size_t n, std::int64_t until_ns,
                  std::int64_t drain_deadline_ns) {
  const int fd = connect_unix(path);
  if (fd < 0) return;
  std::string buf;
  char tmp[16384];
  std::size_t answered = 0;
  // Reads until `want` responses have arrived or `deadline` passes; every
  // line is recorded against the request its tag names.
  const auto read_until = [&](std::size_t want, std::int64_t deadline) {
    while (answered < want) {
      const std::int64_t wait_ns = deadline - now_ns();
      if (wait_ns <= 0) return;
      if (!wait_readable(fd, wait_ns)) continue;
      const ssize_t r = ::recv(fd, tmp, sizeof tmp, 0);
      if (r <= 0) return;
      answered += take_lines(
          buf, tmp, static_cast<std::size_t>(r), now_ns(),
          [&](std::size_t idx) -> WireOutcome* {
            return idx % n == c && idx / n < out.size() ? &out[idx / n]
                                                        : nullptr;
          });
    }
  };
  for (std::size_t k = 0; now_ns() < until_ns; ++k) {
    const std::size_t i = k * n + c;
    out.emplace_back().send_ns = now_ns();
    if (!send_all(fd, frame(i, commands[i % commands.size()]))) break;
    read_until(k + 1, drain_deadline_ns);
    if (answered < k + 1) break;  // unanswered: the caller sees it
  }
  // A short grace read, so that a late second response is seen.
  read_until(SIZE_MAX, now_ns() + 20'000'000);
  ::close(fd);
}

}  // namespace

std::vector<WireOutcome> run_open_loop(const std::string& socket_path,
                                       const std::vector<WireRequest>& requests,
                                       std::size_t connections,
                                       std::int64_t drain_deadline_ns) {
  std::vector<WireOutcome> out(requests.size());
  connections = std::max<std::size_t>(1, connections);
  std::vector<std::exception_ptr> errors(connections);
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c)
      threads.emplace_back([&, c] {
        try {
          drive_connection(socket_path, requests, out, c, connections,
                           drain_deadline_ns);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

std::vector<WireOutcome> run_closed_loop(
    const std::string& socket_path, const std::vector<std::string>& commands,
    std::size_t connections, std::int64_t until_ns,
    std::int64_t drain_deadline_ns) {
  connections = std::max<std::size_t>(1, connections);
  std::vector<std::vector<WireOutcome>> per(connections);
  std::vector<std::exception_ptr> errors(connections);
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c)
      threads.emplace_back([&, c] {
        try {
          drive_closed(socket_path, commands, per[c], c, connections,
                       until_ns, drain_deadline_ns);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  std::size_t rounds = 0;
  for (const auto& v : per) rounds = std::max(rounds, v.size());
  std::vector<WireOutcome> out(rounds * connections);
  for (std::size_t c = 0; c < connections; ++c)
    for (std::size_t k = 0; k < per[c].size(); ++k)
      out[k * connections + c] = std::move(per[c][k]);
  return out;
}

}  // namespace perfbench
