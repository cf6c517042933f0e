// murphy_perfbench — measures one workload and prints its raw samples as one
// JSON line (perfbench/run.py turns them into metrics).
//
//   murphy_perfbench --workload wire_steady|wire_ingest|incident_batch
//                    --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --work-dir holds the run's unix socket (default: the current directory).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/raw_result.h"
#include "perfbench/src/workloads.h"
#include "src/obs/json.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

void append_samples(std::string& out, const std::vector<double>& v) {
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += murphy::obs::json_number(v[i]);
  }
  out += "]";
}

void append_key(std::string& out, const char* key) {
  out += ",";
  murphy::obs::json_append_escaped(out, key);
  out += ":";
}

}  // namespace

std::string to_json(const RawResult& r) {
  using murphy::obs::json_append_escaped;
  using murphy::obs::json_number;
  std::string out = "{\"workload\":";
  json_append_escaped(out, r.workload);
  append_key(out, "seed");
  out += json_number(r.seed);
  append_key(out, "seconds");
  out += json_number(r.seconds);
  append_key(out, "traced");
  out += r.traced ? "true" : "false";
  append_key(out, "compiler");
  json_append_escaped(out, PERFBENCH_COMPILER);
  append_key(out, "flags");
  json_append_escaped(out, PERFBENCH_FLAGS);
  append_key(out, "setup_s");
  append_samples(out, r.setup_s);
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"attempted", r.attempted},   {"ok", r.ok},
      {"err_lines", r.err_lines},   {"rejects", r.rejects},
      {"deadline", r.deadline},     {"unanswered", r.unanswered},
      {"duplicates", r.duplicates}, {"engine_ok", r.engine_ok},
      {"top3_hits", r.top3_hits},   {"top3_base", r.top3_base},
      {"check_compared", r.check_compared},
      {"check_mismatches", r.check_mismatches}};
  for (const auto& [key, v] : counts) {
    append_key(out, key);
    out += json_number(v);
  }
  append_key(out, "latency_ms");
  append_samples(out, r.latency_ms);
  append_key(out, "latency_windows");
  out += json_number(static_cast<std::uint64_t>(r.latency_windows));
  append_key(out, "lag_ms");
  append_samples(out, r.lag_ms);
  append_key(out, "ingest_ms");
  append_samples(out, r.ingest_ms);
  append_key(out, "ingest_lag_ms");
  append_samples(out, r.ingest_lag_ms);
  append_key(out, "ingest_windows");
  out += json_number(static_cast<std::uint64_t>(r.ingest_windows));
  append_key(out, "ingest_mode");
  json_append_escaped(out, r.ingest_mode);
  append_key(out, "cpu_s");
  out += json_number(r.cpu_s);
  append_key(out, "peak_rss_mb");
  out += json_number(r.peak_rss_mb);
  append_key(out, "check_ok");
  out += r.check_ok ? "true" : "false";
  append_key(out, "check_detail");
  json_append_escaped(out, r.check_detail);
  append_key(out, "samples");
  out += "{";
  bool first = true;
  for (const auto& [name, v] : r.samples) {
    if (!first) out += ",";
    first = false;
    json_append_escaped(out, name);
    out += ":";
    append_samples(out, v);
  }
  out += "}";
  append_key(out, "values");
  out += "{";
  first = true;
  for (const auto& [name, v] : r.values) {
    if (!first) out += ",";
    first = false;
    json_append_escaped(out, name);
    out += ":";
    out += json_number(v);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.traced = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      std::fprintf(stderr, "murphy_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    std::fprintf(stderr, "murphy_perfbench: --seconds must be in (0, 600]\n");
    return 2;
  }
  try {
    perfbench::RawResult r;
    if (cfg.workload == "wire_steady") {
      r = perfbench::run_wire_steady(cfg);
    } else if (cfg.workload == "wire_ingest") {
      r = perfbench::run_wire_ingest(cfg);
    } else if (cfg.workload == "incident_batch") {
      r = perfbench::run_incident_batch(cfg);
    } else {
      std::fprintf(stderr, "murphy_perfbench: unknown workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
    r.workload = cfg.workload;
    r.seed = cfg.seed;
    r.seconds = cfg.seconds;
    r.traced = cfg.traced;
    std::printf("%s\n", perfbench::to_json(r).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "murphy_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
