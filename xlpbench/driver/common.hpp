#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace xlpbench {

/// Distinct input sets: `--seed s` selects variant s mod kVariants, so
/// every seed maps onto inputs whose golden outputs are checked in.
inline constexpr int kVariants = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int variant = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Print this variant's golden record and exit instead of measuring.
  bool emit_golden = false;
  /// Scratch directory for the run's own files (svc cache, ledger, socket).
  std::string work_dir;
  /// The checked-in golden record for (workload, variant); null when
  /// emitting.
  const xlp::obs::Json* golden = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< every failed check, in order
  std::map<std::string, Metric> metrics;
  xlp::obs::Json detail = xlp::obs::Json::object();  ///< results-file extras
  xlp::obs::Json golden_record;  ///< set by --emit-golden runs

  void fail(std::string problem) {
    ++failed;
    problems.push_back(std::move(problem));
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times `fn` once, in seconds.
[[nodiscard]] inline double timed(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// The time an untraced run reports from its samples: their 10th
/// percentile. Other tenants of the host slow identical iterations by up to
/// 2x in spells of seconds to minutes and never speed them up, so a low
/// quantile follows the program while a median follows how much of the run
/// such a spell covered.
[[nodiscard]] double floor_time(const std::vector<double>& samples);
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] xlp::obs::Json samples(const std::vector<double>& values);
/// Exact decimal form of a double ("%.17g"), so golden values compare
/// bit-for-bit through a JSON round trip.
[[nodiscard]] std::string exact(double value);

/// Compares an observed golden-form record with the checked-in one;
/// records a failed operation naming `what` on mismatch.
void check_golden(Outcome& out, const Options& opt,
                  const xlp::obs::Json& observed, const std::string& what);

/// Sets every per-layer metric to zero; a workload then overwrites the
/// layers it exercises, so each traced run reports the full list.
void zero_layers(Outcome& out);

/// Runs `iteration` until the iterations have taken `seconds` (at least
/// `min_runs` times) and returns each iteration's wall time. `between`, when
/// set, runs after each iteration outside that budget: set-up samples taken
/// there spread over the whole run instead of one moment of it.
[[nodiscard]] std::vector<double> repeat_for(
    double seconds, int min_runs, const std::function<void()>& iteration,
    const std::function<void()>& between = {});

// The four workloads (workloads.cpp, svc_workload.cpp).
[[nodiscard]] Outcome run_8x8_ur(const Options& opt);
[[nodiscard]] Outcome sim_16x16_ur_hot(const Options& opt);
[[nodiscard]] Outcome sweep_64(const Options& opt);
[[nodiscard]] Outcome svc_zipf(const Options& opt);

}  // namespace xlpbench
