// Golden outputs of the scenario entry points: `xlp solve` stdout for every
// method, `--stats-json` of `xlp simulate` / `run` / `replay`, the packet
// trace of `xlp trace`, `xlp appspec` stdout, an annealer checkpoint, and
// the reply bytes of `xlpd --batch` for one solve, one evaluate and one
// simulate request. Each output is pinned by its obs::fnv1a64_hex digest,
// so a refactor of the CLI or the service executors that changes a single
// byte of what a user sees fails here. Host wall times (the ", 0.012 s"
// suffix of the solve report) are the only bytes masked out.
//
// The binaries under test are passed in as XLP_BIN / XLPD_BIN; every
// command runs in a fresh temporary directory with the ledger off.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <string>

#include "obs/canonical.hpp"
#include "util/fsio.hpp"

namespace {

namespace fs = std::filesystem;

const std::string kXlp = XLP_BIN;
const std::string kXlpd = XLPD_BIN;

/// A fresh, empty per-test directory.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "xlp_golden_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs `command` through the shell and returns its stdout; the command
/// must exit 0.
std::string run(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    out.append(buffer.data(), got);
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

std::string file_digest(const std::string& path) {
  const auto bytes = xlp::util::read_file(path);
  EXPECT_TRUE(bytes.has_value()) << path;
  return xlp::obs::fnv1a64_hex(bytes.value_or(""));
}

/// `xlp solve` stdout with the wall-time suffix of the cost line removed.
std::string solve_digest(const std::string& flags) {
  const std::string out = run(kXlp + " solve --no-ledger " + flags);
  static const std::regex seconds(", [0-9]+\\.[0-9]+ s\n");
  return xlp::obs::fnv1a64_hex(std::regex_replace(out, seconds, "\n"));
}

/// Digest of the `--stats-json` document a command writes.
std::string stats_digest(const std::string& name,
                         const std::string& command) {
  const std::string dir = fresh_dir(name);
  const std::string path = dir + "/stats.json";
  run("cd " + dir + " && " + kXlp + " " + command +
      " --no-ledger --stats-json " + path + " > /dev/null");
  return file_digest(path);
}

TEST(GoldenSolve, EveryMethodReportIsPinned) {
  EXPECT_EQ(solve_digest("--n 8 --c 4 --method dcsa --moves 2000 --seed 3"),
            "291366e7e79a669a");
  EXPECT_EQ(solve_digest("--n 8 --c 4 --method onlysa --moves 2000 --seed 3"),
            "1bd8ca03fbd978a2");
  EXPECT_EQ(solve_digest("--n 8 --c 4 --method dnc"), "255c9b1679e98f9a");
  EXPECT_EQ(solve_digest("--n 8 --c 2 --method exact"), "6fd3431d75e71155");
  EXPECT_EQ(solve_digest("--n 16 --c 8 --moves 3000 --seed 11"),
            "b0867e1fdb01c0e6");
}

TEST(GoldenSolve, CheckpointBytes) {
  const std::string dir = fresh_dir("checkpoint");
  run(kXlp + " solve --no-ledger --n 8 --c 4 --moves 2000 --seed 5 "
             "--checkpoint " + dir + "/ck.json --checkpoint-every 500 "
             "> /dev/null");
  EXPECT_EQ(file_digest(dir + "/ck.json"), "cdd3ab33a86877ef");
}

TEST(GoldenSimulate, StatsJson) {
  EXPECT_EQ(stats_digest("sim_xy", "simulate --links 1-3,3-7 --c 4 "
                                   "--load 0.02 --cycles 2000 --seed 2"),
            "dc69549648735add");
  EXPECT_EQ(stats_digest("sim_o1turn_vec",
                         "simulate --links 1-3,3-7 --c 4 --load 0.02 "
                         "--cycles 2000 --seed 2 --routing o1turn --vec "
                         "--vcs 2"),
            "74b3d835a559f46e");
  EXPECT_EQ(stats_digest("sim_yx_transpose",
                         "simulate --n 6 --links 0-2,2-5 --c 2 "
                         "--pattern transpose --load 0.03 --cycles 1500 "
                         "--routing yx --seed 4"),
            "8f32d6e0d24b0c20");
  EXPECT_EQ(stats_digest("sim_parsec", "simulate --links none --c 1 "
                                       "--pattern canneal --cycles 1500"),
            "475b6dbb90c78c17");
}

TEST(GoldenRun, StatsJson) {
  EXPECT_EQ(stats_digest("run", "run --n 8 --c 4 --moves 2000 --cycles 2000 "
                                "--seed 3"),
            "815f154c2aeb614a");
  EXPECT_EQ(stats_digest("run_transpose",
                         "run --n 6 --c 2 --moves 1000 --cycles 1500 "
                         "--pattern transpose --load 0.03 --seed 9"),
            "d001b895bce1ce0c");
}

TEST(GoldenReplay, TraceAndStatsJson) {
  const std::string dir = fresh_dir("replay");
  const std::string trace = dir + "/t.trace";
  run(kXlp + " trace --no-ledger --out " + trace +
      " --n 4 --cycles 2000 --pattern transpose --seed 6 > /dev/null");
  EXPECT_EQ(file_digest(trace), "8c15fe2f87c26c87");
  EXPECT_EQ(stats_digest("replay_stats",
                         "replay --trace " + trace + " --links 0-2 --c 2"),
            "a83bcd5447024846");
}

TEST(GoldenAppspec, Report) {
  EXPECT_EQ(xlp::obs::fnv1a64_hex(run(
                kXlp + " appspec --no-ledger --workload canneal --n 4 "
                       "--moves 300 --seed 2")),
            "91b25c8a679e624a");
}

TEST(GoldenXlpd, BatchReplyBytes) {
  const std::string dir = fresh_dir("xlpd");
  ASSERT_TRUE(xlp::util::atomic_write_file(
      dir + "/batch.json",
      R"([{"kind":"solve","n":8,"c":4,"method":"dcsa","moves":800,"seed":3},)"
      R"({"kind":"evaluate","n":8,"c":4,"links":"1-3,3-7",)"
      R"("workload":"transpose","load":0.02,"contention":0.5},)"
      R"({"kind":"simulate","n":6,"c":2,"links":"0-2,3-5",)"
      R"("workload":"uniform_random","load":0.02,"cycles":1500,)"
      R"("routing":"o1turn","vcs":2,"seed":4}])"));
  run(kXlpd + " --batch " + dir + "/batch.json --out " + dir +
      "/reply.json --cache-dir " + dir + "/cache --no-ledger > /dev/null");
  EXPECT_EQ(file_digest(dir + "/reply.json"), "a8a7d5636b311869");
}

}  // namespace
