// meshpram_bench: runs one benchmark workload and prints its result.
//
//   meshpram_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--quick]
//
// Output: one `info {...}` line describing the run, then the result as the
// last line, a JSON object with keys correct, attempted, failed, metrics.
// perfbench/run.py builds this program and wraps it; see README.md.
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "mesh/node_order.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace meshpram;
using namespace meshpram::perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "meshpram_bench: " << why
            << "\nusage: meshpram_bench --workload <sim_dense|sim_faults|"
               "dist_ranks|serve_open> --seed <n> --seconds <s> "
               "--trace <0|1> [--quick]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  const std::map<std::string, std::function<Report(const Options&)>> workloads =
      {{"sim_dense", run_sim_dense},
       {"sim_faults", run_sim_faults},
       {"dist_ranks", run_dist_ranks},
       {"serve_open", run_serve_open}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage("unknown workload " + opt.workload);

  Report rep;
  try {
    rep = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "meshpram_bench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  rep.info["workload"] = opt.workload;
  rep.info["seed"] = std::to_string(opt.seed);
  rep.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  rep.info["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.info["node_order"] = node_order_name(node_order_default());
  rep.info["simd"] = simd::kernel_name();
  rep.info["trace"] = opt.trace ? "1" : "0";
  rep.info["peak_rss_mb"] = std::to_string(peak_rss_mb());
  std::ostringstream info;
  info << "info {";
  const char* sep = "";
  for (const auto& [k, v] : rep.info) {
    info << sep << json_string(k) << ": " << json_string(v);
    sep = ", ";
  }
  info << "}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (rep.correct ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  sep = "";
  for (const auto& [name, m] : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "meshpram_bench: metric " << name << " is not finite\n";
      return 1;
    }
    out << sep << json_string(name) << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
