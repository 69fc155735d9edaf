// klexbench: the repository benchmark, one workload per invocation.
//
//   klexbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 repeats the workload (set-up, measured window, faults) until
// --seconds of host time have passed, at least kMinReps times, and reports
// the end-to-end metrics: the simulated service metrics of the first
// repetition, which every later repetition must reproduce bit for bit, and
// a robust summary of each host-time metric. --trace 1 runs the workload once
// untraced and once traced with the same seed and reports the per-layer
// metrics; the two runs must agree on every simulated value.
//
// stdout carries a human-readable report; its last line is one JSON
// object with the keys correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/client.hpp"
#include "bench.hpp"

#ifndef KLEXBENCH_BUILD_TYPE
#define KLEXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using klexbench::RepResult;
using klexbench::Span;
using klexbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;
// The traced run's step-class and phase times must add up to its wall.
constexpr double kSumTolerance = 0.15;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0) || args.trace < 0 ||
      args.trace > 1) {
    throw std::invalid_argument(
        "usage: klexbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE]");
  }
  return args;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + number(value);
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The machine a result came from, so results from different hosts (or a
/// P = 4 run on fewer cores) are never compared blindly.
void print_machine(const Workload& w) {
  std::cout << "machine: {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << compiler() << "\", \"build_type\": \""
            << KLEXBENCH_BUILD_TYPE << "\", \"lanes\": " << w.threads << "}\n";
}

// Reads `key` from a repetition's simulated values, then its host values.
double lookup(const RepResult& rep, const std::string& key) {
  if (auto it = rep.sim.find(key); it != rep.sim.end()) return it->second;
  if (auto it = rep.host.find(key); it != rep.host.end()) return it->second;
  throw std::logic_error("no value for metric " + key);
}

// Each slice's (or fault's) fastest host time over the repetitions that
// recorded all of them. Slice i does the same work in every repetition of
// one seed, so this lower envelope keeps what the program costs and drops
// what a busy host added to some repetitions but not to others.
std::vector<double> fastest_each(const std::vector<RepResult>& reps,
                                 std::vector<double> RepResult::*series) {
  std::vector<double> fastest = reps.front().*series;
  for (const RepResult& rep : reps) {
    const std::vector<double>& values = rep.*series;
    if (values.size() != fastest.size()) continue;  // a failed repetition
    for (std::size_t i = 0; i < values.size(); ++i) {
      fastest[i] = std::min(fastest[i], values[i]);
    }
  }
  return fastest;
}

// Every end-to-end metric, in BENCHMARK.json order. Simulated values
// repeat exactly, so the first repetition's stand. Set-up time is the
// median over repetitions. The window and fault host times are lower
// envelopes (fastest_each): a shared host slows the machine's cores by tens
// of percent for seconds at a time, so even the fastest whole repetition
// spread too far from run to run (NOTES.md). A failed repetition may lack values; they read 0 (the run is
// reported incorrect anyway).
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps) {
  std::vector<double> setup_s;
  for (const RepResult& rep : reps) {
    if (auto it = rep.host.find("setup_s"); it != rep.host.end()) {
      setup_s.push_back(it->second);
    }
  }
  auto simulated = [&](const char* key) {
    auto it = reps.front().sim.find(key);
    return it != reps.front().sim.end() ? it->second : 0.0;
  };
  double measure_s = 0.0;
  for (double slice_s : fastest_each(reps, &RepResult::window_slices_s)) {
    measure_s += slice_s;
  }
  return {
      {"setup_s", median(setup_s), "s"},
      {"measure_wall_s", measure_s, "s"},
      {"events_per_s", measure_s > 0 ? simulated("sim.events") / measure_s : 0.0,
       "events/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"grant_latency_p50_ticks", simulated("grant_latency_p50_ticks"),
       "ticks"},
      {"grant_latency_p99_ticks", simulated("grant_latency_p99_ticks"),
       "ticks"},
      {"grant_latency_p999_ticks", simulated("grant_latency_p999_ticks"),
       "ticks"},
      {"goodput_grants_per_mtick", simulated("goodput_grants_per_mtick"),
       "grants/Mtick"},
      {"messages_per_grant", simulated("messages_per_grant"), "msgs"},
      {"recovery_ticks_p50", simulated("recovery_ticks_p50"), "ticks"},
      {"recovery_ticks_max", simulated("recovery_ticks_max"), "ticks"},
      {"recovery_events_p50", simulated("recovery_events_p50"), "events"},
      {"recovery_host_ms_p50",
       median(fastest_each(reps, &RepResult::recovery_ms)), "ms"},
  };
}

// Every per-layer metric and its unit, in BENCHMARK.json order.
std::vector<std::pair<std::string, std::string>> per_layer_units() {
  std::vector<std::pair<std::string, std::string>> units = {
      {"api.build_s", "s"},
      {"api.stabilize_s", "s"},
      {"api.fault_apply_ms", "ms"},
      {"api.callback_ns", "ns"},
      {"api.callback_share", "ratio"},
      {"api.epoch_client_ms", "ms"},
      {"api.acquires", "count"},
      {"api.grants", "count"},
      {"api.latency_samples", "count"},
      {"api.fault_latency_p99_ticks", "ticks"},
      {"api.fault_latency_samples", "count"},
      {"api.retries_spent", "count"},
      {"api.backlog_high_water", "count"},
      {"api.generator_lateness_ticks", "ticks"},
      {"api.faults_injected", "count"},
  };
  for (int r = 0; r < klex::kDenyReasonCount; ++r) {
    units.emplace_back(std::string("api.denied.") +
                           klex::deny_reason_name(static_cast<klex::DenyReason>(r)),
                       "count");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"acquire_fail_ratio", "ratio"},
      {"unrecovered_ratio", "ratio"},
      {"sim.delivery_ns", "ns"},
      {"sim.timer_ns", "ns"},
      {"sim.events", "count"},
      {"sim.deliveries", "count"},
      {"sim.timers", "count"},
      {"sim.callbacks", "count"},
      {"sim.queue.bucket_inserts", "count"},
      {"sim.queue.bucket_scans", "count"},
      {"sim.queue.overflow_pushes", "count"},
      {"sim.queue.overflow_pops", "count"},
      {"sim.queue.overflow_ratio", "ratio"},
      {"sim.queue.max_pending", "count"},
      {"sim.callback_slots_created", "count"},
      {"sim.in_flight_walks", "count"},
      {"sim.chaos.dropped", "count"},
      {"sim.chaos.jittered", "count"},
      {"sim.chaos.recovery_ticks_p50", "ticks"},
      {"sim.window.count", "count"},
      {"sim.window.events_per_window", "events"},
      {"sim.window.merged_fallbacks", "count"},
      {"sim.window.lane_busy_ms", "ms"},
      {"sim.window.critical_path_ms", "ms"},
      {"sim.window.merge_ms", "ms"},
      {"sim.window.sync_overhead_share", "ratio"},
      {"core.sent.control", "count"},
      {"core.sent.resource", "count"},
      {"core.sent.pusher", "count"},
      {"core.sent.priority", "count"},
      {"proto.circulations", "count"},
      {"proto.resets", "count"},
      {"proto.tokens_minted", "count"},
      {"verify.violations_steady", "count"},
      {"verify.violations_fault_phase", "count"},
      {"verify.stalls", "count"},
      {"bench.warmup_s", "s"},
      {"bench.trace_overhead_share", "ratio"},
      {"bench.phase_sum_share", "ratio"},
      {"bench.class_sum_share", "ratio"},
  };
  units.insert(units.end(), rest.begin(), rest.end());
  return units;
}

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::cout << "FAILED: " << failure << "\n";
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::cout << json << "}}" << std::endl;
}

void write_spans(std::ostream& out, const std::vector<Span>& spans) {
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"start_s\": "
        << number(s.start_s) << ", \"end_s\": " << number(s.end_s) << "}";
  }
  out << "\n]";
}

int run_untraced(const Args& args, const Workload& w) {
  std::vector<RepResult> reps;
  std::vector<std::string> failures;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(reps.size()) < kMaxReps) {
    reps.push_back(klexbench::run_rep(w, args.seed, /*traced=*/false));
    const RepResult& rep = reps.back();
    std::cerr << "rep " << reps.size() << ": " << json_map(rep.host) << "\n";
    if (!rep.failures.empty()) {
      failures = rep.failures;
      break;
    }
    if (rep.sim != reps.front().sim) {
      failures.push_back("repetition " + std::to_string(reps.size()) +
                         " did not reproduce the first one's simulated "
                         "results (nondeterminism)");
      break;
    }
    // Stop before a repetition that would overrun --seconds, once the
    // minimum is done (repetitions take about the same time).
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (static_cast<int>(reps.size()) >= kMinReps &&
        elapsed + per_rep > args.seconds) {
      break;
    }
  }
  std::cout << "workload: " << w.name << " seed=" << args.seed
            << " reps=" << reps.size() << " trace=0\n";
  std::cout << "sim: " << json_map(reps.front().sim) << "\n";
  print_failures(failures);
  print_result(failures.empty(), reps.front().attempted, reps.front().failed,
               end_to_end(reps));
  return 0;
}

int run_traced(const Args& args, const Workload& w) {
  const RepResult base = klexbench::run_rep(w, args.seed, /*traced=*/false);
  const RepResult traced = klexbench::run_rep(w, args.seed, /*traced=*/true);
  std::vector<std::string> failures = base.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  for (const auto& [key, value] : base.sim) {
    auto it = traced.sim.find(key);
    if (it != traced.sim.end() && it->second != value) {
      failures.push_back("tracing perturbed the run: " + key + " " +
                         number(value) + " untraced vs " +
                         number(it->second) + " traced");
    }
  }
  std::map<std::string, double> derived;
  if (failures.empty()) {
    const double untraced_s = base.host.at("measure_wall_s");
    derived["bench.trace_overhead_share"] =
        traced.host.at("measure_wall_s") / untraced_s - 1.0;
    // Untraced P > 1 wall minus what perfectly overlapped lanes would take
    // (the slowest lane of each window plus the barrier merges) is the
    // time spent synchronizing.
    derived["sim.window.sync_overhead_share"] =
        w.threads > 1
            ? (untraced_s - (traced.host.at("sim.window.critical_path_ms") +
                             traced.host.at("sim.window.merge_ms") +
                             traced.host.at("api.epoch_client_ms")) /
                                1e3) /
                  untraced_s
            : 0.0;
    for (const char* key : {"bench.class_sum_share", "bench.phase_sum_share"}) {
      const double share = traced.host.at(key);
      if (std::abs(share - 1.0) > kSumTolerance) {
        failures.push_back(std::string(key) + " = " + number(share) +
                           ": traced parts do not add up to the wall");
      }
    }
  }
  std::cout << "workload: " << w.name << " seed=" << args.seed
            << " reps=2 trace=1\n";
  std::cout << "sim: " << json_map(traced.sim) << "\n";
  print_failures(failures);
  const bool correct = failures.empty();
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : per_layer_units()) {
    double value = 0.0;
    if (correct) {
      auto it = derived.find(name);
      value = it != derived.end() ? it->second : lookup(traced, name);
    }
    metrics.push_back(Metric{name, value, unit});
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
        << ",\n\"untraced_spans\": ";
    write_spans(out, base.spans);
    out << ",\n\"traced_spans\": ";
    write_spans(out, traced.spans);
    out << "}\n";
  }
  print_result(correct, traced.attempted, traced.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = klexbench::workload_named(args.workload);
    print_machine(w);
    return args.trace == 1 ? run_traced(args, w) : run_untraced(args, w);
  } catch (const std::exception& error) {
    std::cerr << "klexbench: " << error.what() << "\n";
    return 2;
  }
}
