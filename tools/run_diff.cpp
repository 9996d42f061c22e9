// run_diff — compare two xlp run directories.
//
//   run_diff <dir-a> <dir-b> [--threshold <pct>] [--html <file>]
//
// Reads the telemetry bundles of both directories (stats, xlp-series/1
// recordings, ledgers; see `xlp report`) and prints:
//   * stats deltas for every numeric metric present in both runs,
//   * aligned time-series comparisons (count-weighted means per series),
//   * a ledger provenance diff (run id, git sha, seed, params).
// With --html it also writes a self-contained overlay dashboard, one chart
// per common series with both runs plotted.
//
// Exit codes:
//   0  runs match within the threshold
//   1  metric regression: a latency-like metric of B exceeds A by more
//      than --threshold percent (default 5), or throughput drops by more
//      (improvements never fail the gate)
//   2  usage error / unreadable inputs
//
// `xlp run --seed S` twice into two directories must diff clean at any
// thread counts — the determinism contract, enforced in CI.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/fsio.hpp"

using xlp::Args;
using xlp::obs::ChartSeries;
using xlp::obs::Json;
using xlp::obs::RunDirData;

namespace {

/// Numeric stats flattened one object level deep ("latency.avg").
void flatten_numeric(const Json& obj, const std::string& prefix,
                     std::map<std::string, double>& out) {
  for (const auto& [key, value] : obj.members()) {
    const std::string label = prefix.empty() ? key : prefix + "." + key;
    if (value.is_number()) {
      out[label] = value.as_number();
    } else if (value.is_object() && prefix.empty()) {
      flatten_numeric(value, key, out);
    }
  }
}

/// A metric where an increase in run B is a regression. Latency-like
/// metrics regress upward; packet losses too.
bool higher_is_worse(const std::string& name) {
  return name.rfind("latency.", 0) == 0 ||
         name == "avg_contention_per_hop" || name == "packets_lost" ||
         name == "packets_dropped" || name == "packets_unroutable";
}

/// A metric where a decrease in run B is a regression.
bool lower_is_worse(const std::string& name) {
  return name == "throughput_packets_per_node_cycle" ||
         name == "packets_finished";
}

double pct_change(double a, double b) {
  if (a == 0.0) return b == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return (b - a) / std::abs(a) * 100.0;
}

/// Every recorded xlp-series/1 series of a run, keyed by name.
std::map<std::string, ChartSeries> all_series(const RunDirData& data) {
  std::map<std::string, ChartSeries> out;
  if (data.series)
    for (ChartSeries& s : xlp::obs::chart_series_from_json(*data.series))
      out[s.name] = std::move(s);
  return out;
}

double series_mean(const ChartSeries& s) {
  double sum = 0.0;
  if (s.points.empty()) return 0.0;
  for (const auto& [x, y] : s.points) sum += y;
  return sum / static_cast<double>(s.points.size());
}

std::string ledger_field(const std::vector<Json>& ledger, const char* key) {
  if (ledger.empty()) return "(no ledger)";
  const Json* v = ledger.back().find(key);
  if (v == nullptr) return "(absent)";
  return v->is_string() ? v->as_string() : v->dump();
}

int usage() {
  std::fprintf(stderr,
               "usage: run_diff <dir-a> <dir-b> [--threshold <pct>] "
               "[--html <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().size() != 2) return usage();
  const std::string dir_a = args.positional()[0];
  const std::string dir_b = args.positional()[1];
  const double threshold = args.get_double("threshold", 5.0);
  const std::string html_path = args.get_or("html", "");

  const RunDirData a = xlp::obs::collect_run_dir(dir_a);
  const RunDirData b = xlp::obs::collect_run_dir(dir_b);
  if (!a.stats && !a.series && a.ledger.empty()) {
    std::fprintf(stderr, "run_diff: no telemetry found in %s\n",
                 dir_a.c_str());
    return 2;
  }

  int regressions = 0;
  std::printf("run_diff: A=%s  B=%s  (threshold %.1f%%)\n", dir_a.c_str(),
              dir_b.c_str(), threshold);

  // --- Stats deltas -------------------------------------------------------
  if (a.stats && b.stats) {
    std::map<std::string, double> sa, sb;
    flatten_numeric(*a.stats, "", sa);
    flatten_numeric(*b.stats, "", sb);
    std::printf("\nstats (%zu metrics in both runs):\n", [&] {
      std::size_t common = 0;
      for (const auto& [k, v] : sa) common += sb.count(k);
      return common;
    }());
    for (const auto& [key, va] : sa) {
      const auto it = sb.find(key);
      if (it == sb.end()) continue;
      const double vb = it->second;
      const double pct = pct_change(va, vb);
      const bool regressed =
          std::isfinite(pct)
              ? (higher_is_worse(key) && pct > threshold) ||
                    (lower_is_worse(key) && pct < -threshold)
              : higher_is_worse(key) && vb > va;
      if (va == vb) continue;  // quiet on exact matches
      std::printf("  %-40s %14.6g %14.6g  %+8.2f%%%s\n", key.c_str(), va, vb,
                  pct, regressed ? "  REGRESSION" : "");
      if (regressed) ++regressions;
    }
    std::printf("  (metrics with identical values suppressed)\n");
  } else {
    std::printf("\nstats: %s\n", a.stats || b.stats
                                     ? "only one run has a stats document"
                                     : "absent in both runs");
  }

  // --- Time-series comparison --------------------------------------------
  const auto series_a = all_series(a);
  const auto series_b = all_series(b);
  std::size_t common_series = 0;
  for (const auto& [name, sa_] : series_a) common_series +=
      series_b.count(name);
  if (common_series > 0) {
    std::printf("\nseries (count-weighted means over aligned recordings):\n");
    for (const auto& [name, s] : series_a) {
      const auto it = series_b.find(name);
      if (it == series_b.end()) continue;
      const double ma = series_mean(s);
      const double mb = series_mean(it->second);
      std::printf("  %-40s %14.6g %14.6g  %+8.2f%%  (%zu vs %zu pts)\n",
                  name.c_str(), ma, mb, pct_change(ma, mb), s.points.size(),
                  it->second.points.size());
    }
  }
  for (const auto& [name, s] : series_a)
    if (series_b.find(name) == series_b.end())
      std::printf("  only in A: %s\n", name.c_str());
  for (const auto& [name, s] : series_b)
    if (series_a.find(name) == series_a.end())
      std::printf("  only in B: %s\n", name.c_str());

  // --- Ledger provenance diff --------------------------------------------
  std::printf("\nledger provenance (latest record per run):\n");
  for (const char* key : {"run_id", "subcommand", "seed", "git_sha",
                          "hostname", "params"}) {
    const std::string va = ledger_field(a.ledger, key);
    const std::string vb = ledger_field(b.ledger, key);
    std::printf("  %-12s %s%s\n", key,
                va == vb ? va.c_str() : (va + "  ->  " + vb).c_str(),
                va == vb ? "" : "  DIFFERS");
  }

  // --- Optional HTML overlay dashboard -----------------------------------
  if (!html_path.empty()) {
    std::string body = "<h1>run_diff — " + xlp::obs::html_escape(dir_a) +
                       " vs " + xlp::obs::html_escape(dir_b) + "</h1>\n";
    body += "<h2>Series overlays (A first color, B second)</h2>\n";
    for (const auto& [name, s] : series_a) {
      const auto it = series_b.find(name);
      if (it == series_b.end()) continue;
      ChartSeries sa_ = s, sb_ = it->second;
      sa_.name = "A: " + name;
      sb_.name = "B: " + name;
      body += xlp::obs::svg_line_chart(name, {sa_, sb_});
    }
    const std::string html =
        xlp::obs::html_page("run_diff — " + dir_a + " vs " + dir_b, body);
    if (xlp::util::atomic_write_file(html_path, html)) {
      std::printf("\nhtml: %s written\n", html_path.c_str());
    } else {
      std::fprintf(stderr, "run_diff: cannot write %s\n", html_path.c_str());
      return 2;
    }
  }

  if (regressions > 0) {
    std::printf("\n%d metric regression%s beyond %.1f%%\n", regressions,
                regressions == 1 ? "" : "s", threshold);
    return 1;
  }
  std::printf("\nno metric regressions beyond %.1f%%\n", threshold);
  return 0;
}
