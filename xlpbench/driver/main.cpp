// xlpbench_driver: runs one benchmark workload and prints its result as the
// last line of stdout.
//
//   xlpbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --goldens <goldens.json> --work-dir <dir>
//                   [--results-dir <dir>] [--emit-golden]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --emit-golden prints the golden record of the seed's variant instead of
// measuring. Every measured result is stamped with an obs::Provenance and
// nproc in the results file; a build that is not Release reports nothing.

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/provenance.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace {

using xlp::obs::Json;
using xlpbench::Options;
using xlpbench::Outcome;

constexpr int kExitUsage = 2;

Outcome dispatch(const Options& opt) {
  if (opt.workload == "run_8x8_ur") return xlpbench::run_8x8_ur(opt);
  if (opt.workload == "sim_16x16_ur_hot") return xlpbench::sim_16x16_ur_hot(opt);
  if (opt.workload == "sweep_64") return xlpbench::sweep_64(opt);
  if (opt.workload == "svc_zipf") return xlpbench::svc_zipf(opt);
  throw xlp::Error(xlp::ErrorCode::kUsage, "unknown workload " + opt.workload);
}

Json result_line(const Outcome& out) {
  Json metrics = Json::object();
  for (const auto& [name, m] : out.metrics)
    metrics.set(name, Json::object().set("value", m.value).set("unit", m.unit));
  return Json::object()
      .set("correct", out.problems.empty())
      .set("attempted", out.attempted)
      .set("failed", out.failed)
      .set("metrics", std::move(metrics));
}

int run(const xlp::Args& args) {
  Options opt;
  opt.workload = args.get_or("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opt.variant = static_cast<int>(opt.seed % xlpbench::kVariants);
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_long("trace", 0) != 0;
  opt.emit_golden = args.has("emit-golden");
  opt.work_dir = args.get_or("work-dir", ".");
  const std::string goldens_path = args.get_or("goldens", "");
  if (opt.workload.empty() || (!opt.emit_golden && goldens_path.empty())) {
    std::fprintf(stderr,
                 "usage: xlpbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --goldens <file> "
                 "--work-dir <dir> [--results-dir <dir>] [--emit-golden]\n");
    return kExitUsage;
  }

  const xlp::obs::Provenance provenance =
      xlp::obs::Provenance::collect(opt.seed);
  if (!opt.emit_golden &&
      provenance.flags.find("[Release]") == std::string::npos) {
    std::fprintf(stderr,
                 "xlpbench: refusing to report numbers from a non-Release "
                 "build (flags: %s)\n",
                 provenance.flags.c_str());
    return 1;
  }

  std::optional<Json> goldens;
  if (!opt.emit_golden) {
    const auto text = xlp::util::read_file(goldens_path);
    if (text) goldens = Json::parse(*text);
    if (!goldens) {
      std::fprintf(stderr, "xlpbench: cannot read goldens %s\n",
                   goldens_path.c_str());
      return 1;
    }
    if (const Json* per_workload = goldens->find(opt.workload);
        per_workload != nullptr &&
        per_workload->size() == static_cast<std::size_t>(xlpbench::kVariants))
      opt.golden = &per_workload->at(static_cast<std::size_t>(opt.variant));
  }

  std::filesystem::create_directories(opt.work_dir);
  Outcome out = dispatch(opt);
  if (opt.emit_golden) {
    std::printf("%s\n", out.golden_record.dump().c_str());
    return 0;
  }


  if (!opt.trace) out.set("peak_rss_mb", xlpbench::peak_rss_mb(), "MB");
  Json stamp = provenance.to_json();
  stamp.set("nproc", static_cast<long>(std::thread::hardware_concurrency()));

  if (const std::string dir = args.get_or("results-dir", ""); !dir.empty()) {
    Json problems = Json::array();
    for (const std::string& p : out.problems) problems.push(p);
    Json doc = Json::object()
                   .set("schema", "xlpbench-result/1")
                   .set("workload", opt.workload)
                   .set("seed", static_cast<long>(opt.seed))
                   .set("variant", opt.variant)
                   .set("seconds", opt.seconds)
                   .set("trace", opt.trace)
                   .set("provenance", std::move(stamp))
                   .set("result", result_line(out))
                   .set("problems", std::move(problems))
                   .set("detail", out.detail);
    std::filesystem::create_directories(dir);
    std::ostringstream name;
    name << dir << "/" << opt.workload << "-seed" << opt.seed << "-trace"
         << (opt.trace ? 1 : 0) << ".json";
    if (!xlp::util::atomic_write_file(name.str(), doc.dump() + "\n"))
      std::fprintf(stderr, "xlpbench: could not write %s\n",
                   name.str().c_str());
  }
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "xlpbench: CHECK FAILED: %s\n", p.c_str());
  std::printf("%s\n", result_line(out).dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(xlp::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlpbench: error: %s\n", e.what());
    return 1;
  }
}
