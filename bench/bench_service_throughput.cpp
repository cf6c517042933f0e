// Service throughput bench: concurrent diagnosis requests over streaming
// ingestion (DESIGN.md §9).
//
// Drives the murphyd stack — TelemetryStream + DiagnosisService — with the
// microservice interference scenario: the feed's incident tail is replayed
// into the stream while batches of diagnosis requests (mixed priorities,
// varying training windows) flow through the worker pool. Reported numbers:
// end-to-end request latency p50/p99 (exact, over the collected responses)
// and sustained req/s, plus the service's own latency histograms in the
// JSON snapshot. There is no paper figure for this — the paper's engine is
// offline — so the bench documents the service's engineering envelope.
//
// Two phases:
//   1. single-pipe: futures submitted in-process, the committed 107 req/s /
//      p50 481 ms baseline. One submitter cannot scale past one pipe.
//   2. multi-connection: the same stack behind the socket front end
//      (net_server.h) on a unix socket, driven by N client connections each
//      keeping a window of pipelined tagged DIAGNOSEs in flight. Run at 1
//      worker and at the full worker count — req/s must scale with workers,
//      which the blocking single-reader stdio loop could never show — plus
//      a deliberate over-window burst to count the per-connection
//      ERR rejected_conn_inflight_full admission lines.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/emulation/scenarios.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/net_server.h"
#include "src/service/protocol.h"
#include "src/service/telemetry_stream.h"

using namespace murphy;

namespace {

double exact_quantile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Blocking unix-socket line client for the load generator: windowed
// pipelining with client-side per-request latency (send -> response line).
class BenchClient {
 public:
  explicit BenchClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  void send_line(const std::string& line) const {
    std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t w = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (w <= 0) return;
      off += static_cast<std::size_t>(w);
    }
  }

  // Next response line, empty on EOF/timeout.
  std::string read_line(int timeout_ms = 120000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return {};
      char tmp[8192];
      const ssize_t r = ::recv(fd_, tmp, sizeof tmp, 0);
      if (r <= 0) return {};
      buf_.append(tmp, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct NetRunResult {
  double rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t completed = 0;
};

// N connections x `per_conn` DIAGNOSEs through the socket front end, each
// connection keeping up to `window` tagged requests in flight.
NetRunResult run_net_load(const murphy::emulation::DiagnosisCase& scenario,
                          std::size_t workers, std::size_t conns,
                          std::size_t per_conn, std::size_t window) {
  using namespace murphy;
  service::ReplayFeed feed = service::make_replay_feed(
      scenario.db, scenario.incident_start + 20);
  service::TelemetryStream stream(std::move(feed.warm),
                                 &obs::global_metrics());
  service::DiagnosisServiceOptions svc_opts;
  svc_opts.num_workers = workers;
  svc_opts.max_queue = 1024;
  svc_opts.murphy.num_threads = 1;
  svc_opts.murphy.sampler.num_samples = bench::full_scale() ? 500 : 150;
  service::DiagnosisService svc(stream, svc_opts);
  service::Protocol proto(stream, svc, service::ProtocolHooks{});

  const std::string path =
      "/tmp/murphy_bench_" + std::to_string(::getpid()) + ".sock";
  service::NetServerOptions nopts;
  nopts.unix_path = path;
  service::NetServer server(proto, nopts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "net server start failed: %s\n", err.c_str());
    return {};
  }

  const std::string cmd = "DIAGNOSE " +
                          scenario.db.entity(scenario.symptom_entity).name +
                          " " + scenario.symptom_metric;
  std::vector<std::thread> clients;
  std::mutex lat_mu;
  std::vector<double> latencies_ms;
  std::atomic<std::size_t> completed{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t ci = 0; ci < conns; ++ci) {
    clients.emplace_back([&, ci] {
      BenchClient client(path);
      if (!client.ok()) return;
      std::vector<std::chrono::steady_clock::time_point> sent(per_conn);
      std::size_t next = 0, got = 0;
      std::vector<double> local;
      local.reserve(per_conn);
      while (got < per_conn) {
        while (next < per_conn && next - got < window) {
          sent[next] = std::chrono::steady_clock::now();
          client.send_line("#" + std::to_string(ci) + "." +
                           std::to_string(next) + " " + cmd);
          ++next;
        }
        const std::string resp = client.read_line();
        if (resp.empty()) return;  // timeout/EOF: drop this connection
        // "#<ci>.<idx> OK id=..." — recover the index from the tag.
        const std::size_t dot = resp.find('.');
        const std::size_t sp = resp.find(' ');
        if (dot == std::string::npos || sp == std::string::npos) continue;
        const std::size_t idx = std::stoul(resp.substr(dot + 1, sp - dot - 1));
        local.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - sent[idx])
                            .count());
        ++got;
        ++completed;
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.shutdown();
  svc.stop();
  ::unlink(path.c_str());

  NetRunResult r;
  r.completed = completed.load();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  r.p50 = exact_quantile(latencies_ms, 0.50);
  r.p99 = exact_quantile(latencies_ms, 0.99);
  r.rps = wall_s > 0.0 ? static_cast<double>(r.completed) / wall_s : 0.0;
  return r;
}

// One connection fires `burst` pipelined DIAGNOSEs in a single write
// against a small in-flight window: the overflow must come back as
// ERR rejected_conn_inflight_full lines, never as unbounded buffering.
std::size_t run_net_burst(const murphy::emulation::DiagnosisCase& scenario,
                          std::size_t window, std::size_t burst) {
  using namespace murphy;
  service::ReplayFeed feed = service::make_replay_feed(
      scenario.db, scenario.incident_start + 20);
  service::TelemetryStream stream(std::move(feed.warm),
                                 &obs::global_metrics());
  service::DiagnosisServiceOptions svc_opts;
  svc_opts.num_workers = 1;
  svc_opts.max_queue = 1024;
  svc_opts.murphy.num_threads = 1;
  svc_opts.murphy.sampler.num_samples = bench::full_scale() ? 500 : 150;
  service::DiagnosisService svc(stream, svc_opts);
  service::Protocol proto(stream, svc, service::ProtocolHooks{});

  const std::string path =
      "/tmp/murphy_bench_burst_" + std::to_string(::getpid()) + ".sock";
  service::NetServerOptions nopts;
  nopts.unix_path = path;
  nopts.max_inflight_per_conn = window;
  service::NetServer server(proto, nopts);
  if (!server.start()) return 0;

  const std::string cmd = "DIAGNOSE " +
                          scenario.db.entity(scenario.symptom_entity).name +
                          " " + scenario.symptom_metric;
  BenchClient client(path);
  std::string batch;
  for (std::size_t i = 0; i < burst; ++i)
    batch += "#" + std::to_string(i) + " " + cmd + "\n";
  client.send_line(batch.substr(0, batch.size() - 1));
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < burst; ++i) {
    const std::string resp = client.read_line();
    if (resp.empty()) break;
    if (resp.find("ERR rejected_conn_inflight_full") != std::string::npos)
      ++rejected;
  }
  server.shutdown();
  svc.stop();
  ::unlink(path.c_str());
  return rejected;
}

}  // namespace

int main() {
  bench::print_header(
      "Service throughput: concurrent diagnosis over streaming ingestion",
      "engineering experiment (no paper figure) — the long-running service's "
      "latency/throughput envelope");

  emulation::InterferenceOptions sopts;
  const auto scenario = make_interference_case(sopts);
  bench::stamp_workload({"hotel-reservation",
                         scenario.entities.services.size(),
                         scenario.entities.nodes.size(), sopts.seed,
                         "interference,streaming-replay"});
  // Warm start just past the incident ramp; the tail streams in during the
  // run, churning series epochs under the caches exactly as production would.
  service::ReplayFeed feed = service::make_replay_feed(
      scenario.db, scenario.incident_start + 20);
  service::TelemetryStream stream(std::move(feed.warm),
                                 &obs::global_metrics());

  service::DiagnosisServiceOptions svc_opts;
  svc_opts.num_workers = std::clamp<std::size_t>(resolve_num_threads(0), 2, 4);
  svc_opts.max_queue = 1024;  // throughput run: admission never rejects
  svc_opts.murphy.num_threads = 1;
  svc_opts.murphy.sampler.num_samples = bench::full_scale() ? 500 : 150;
  svc_opts.murphy.obs.metrics = &obs::global_metrics();
  service::DiagnosisService svc(stream, svc_opts);

  const std::size_t requests = bench::scaled(120, 600);
  std::printf("%zu requests, %zu workers, %zu feed slices streaming in\n\n",
              requests, svc_opts.num_workers, feed.batches.size());

  std::atomic<bool> done{false};
  std::thread ingester([&] {
    // One slice every few ms until the feed is dry; maintain() bounds the
    // epoch-keyed caches under the exclusive lock.
    std::size_t next = 0;
    while (!done.load() && next < feed.batches.size()) {
      service::replay_slice(stream, feed, next++);
      svc.maintain();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::future<service::ServiceResponse>> futures;
  futures.reserve(requests);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    service::ServiceRequest req;
    req.symptom_entity = scenario.symptom_entity;
    req.symptom_metric = scenario.symptom_metric;
    const std::size_t slices = stream.slice_count();
    req.now = slices - 1;
    req.train_begin = i % 3;  // three window variants share cache entries
    req.train_end = slices;
    req.priority = static_cast<int>(i % 2);
    futures.push_back(svc.submit(std::move(req)));
    if ((i + 1) % svc_opts.num_workers == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<double> total_ms;
  std::size_t ok = 0, rejected = 0, other = 0;
  for (auto& f : futures) {
    const service::ServiceResponse resp = f.get();
    if (resp.status == service::RequestStatus::kOk) {
      ++ok;
      total_ms.push_back(resp.queue_ms + resp.run_ms);
    } else if (resp.status == service::RequestStatus::kRejectedQueueFull) {
      ++rejected;
    } else {
      ++other;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  done.store(true);
  ingester.join();
  svc.stop();

  std::sort(total_ms.begin(), total_ms.end());
  const double p50 = exact_quantile(total_ms, 0.50);
  const double p99 = exact_quantile(total_ms, 0.99);
  const double rps = static_cast<double>(ok) / wall_s;

  std::printf("completed %zu  rejected %zu  other %zu  in %.2f s\n", ok,
              rejected, other, wall_s);
  std::printf("throughput : %8.1f req/s\n", rps);
  std::printf("latency p50: %8.1f ms\n", p50);
  std::printf("latency p99: %8.1f ms\n", p99);

  auto& m = obs::global_metrics();
  m.gauge("bench.req_per_s")->set(rps);
  m.gauge("bench.p50_ms")->set(p50);
  m.gauge("bench.p99_ms")->set(p99);
  m.gauge("bench.completed")->set(static_cast<double>(ok));

  // --- phase 2: multi-connection socket load --------------------------------
  const std::size_t max_workers = svc_opts.num_workers;
  const std::size_t conns = 4;
  const std::size_t per_conn = bench::scaled(30, 150);
  const std::size_t window = 8;
  std::printf(
      "\nmulti-connection socket load: %zu conns x %zu reqs, window %zu\n",
      conns, per_conn, window);
  const NetRunResult w1 = run_net_load(scenario, 1, conns, per_conn, window);
  const NetRunResult wn =
      run_net_load(scenario, max_workers, conns, per_conn, window);
  const double scaling = w1.rps > 0.0 ? wn.rps / w1.rps : 0.0;
  std::printf("  1 worker : %8.1f req/s  p50 %7.1f ms  p99 %7.1f ms  (%zu)\n",
              w1.rps, w1.p50, w1.p99, w1.completed);
  std::printf("  %zu workers: %8.1f req/s  p50 %7.1f ms  p99 %7.1f ms  (%zu)\n",
              max_workers, wn.rps, wn.p50, wn.p99, wn.completed);
  std::printf("  scaling  : %.2fx with %zux workers\n", scaling, max_workers);

  const std::size_t burst_window = 4, burst = 12;
  const std::size_t burst_rejected = run_net_burst(scenario, burst_window,
                                                   burst);
  std::printf("  burst    : %zu of %zu over-window requests rejected\n",
              burst_rejected, burst);

  m.gauge("bench.net_conns")->set(static_cast<double>(conns));
  m.gauge("bench.net_completed")
      ->set(static_cast<double>(w1.completed + wn.completed));
  m.gauge("bench.net_req_per_s_w1")->set(w1.rps);
  m.gauge("bench.net_req_per_s_wmax")->set(wn.rps);
  m.gauge("bench.net_workers_max")->set(static_cast<double>(max_workers));
  m.gauge("bench.net_p50_ms")->set(wn.p50);
  m.gauge("bench.net_p99_ms")->set(wn.p99);
  m.gauge("bench.net_scaling")->set(scaling);
  m.gauge("bench.net_burst_rejected")
      ->set(static_cast<double>(burst_rejected));
  bench::write_bench_json("service_throughput");
  return 0;
}
