// bfs_runner's exit-code contract, driven through the built binary: a run
// that --validate rejects exits 6, undetected silent corruption keeps its
// own exit 5 even when validation fails too, and the usage text lists both
// codes and every graph-selection flag.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunOutcome {
  int exit_code = -1;
  std::string out;  // stdout and stderr
};

RunOutcome run_bfs_runner(const std::string& args) {
  const std::string cmd = std::string(ENT_BFS_RUNNER) + " " + args + " 2>&1";
  RunOutcome outcome;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return outcome;
  std::array<char, 4096> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    outcome.out += buf.data();
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

TEST(BfsRunner, FailedValidationExitsSix) {
  // A directed path loaded as undirected without --symmetrize: the engine
  // walks 0 -> 1 -> 2 -> 3, but the graph's own lists (its claimed reverse)
  // hold no in-edges, so every tree fails validation. No fault is injected.
  const fs::path path =
      fs::temp_directory_path() /
      ("ent_bfs_runner_" + std::to_string(::getpid()) + ".txt");
  std::ofstream(path) << "0 1\n1 2\n2 3\n";
  const std::string graph =
      "--graph=" + path.string() + " --directed=false --engine=cpu --sources=2";
  const RunOutcome r = run_bfs_runner(graph + " --validate");
  // The same run without --validate is not judged.
  const RunOutcome unchecked = run_bfs_runner(graph);
  fs::remove(path);
  EXPECT_EQ(r.exit_code, 6) << r.out;
  EXPECT_NE(r.out.find("VALIDATION FAILED: 0 of 2"), std::string::npos)
      << r.out;
  EXPECT_EQ(unchecked.exit_code, 0) << unchecked.out;
}

TEST(BfsRunner, UndetectedCorruptionOutranksFailedValidation) {
  // One silent status flip with audits off corrupts one of the two trees
  // and goes unnoticed: exit 5, the code CI keys on, not 6.
  const RunOutcome r = run_bfs_runner(
      "--engine=enterprise --scale=12 --sources=2 --validate"
      " --fault-plan=\"flip@target=status,level=1,offset=65,bit=7\"");
  EXPECT_EQ(r.exit_code, 5) << r.out;
  EXPECT_TRUE(std::regex_search(r.out, std::regex(R"(validated\s+\|\s+1\s)")))
      << r.out;
  EXPECT_NE(r.out.find("UNDETECTED CORRUPTION"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("VALIDATION FAILED"), std::string::npos) << r.out;
}

TEST(BfsRunner, CleanValidatedRunExitsZero) {
  const RunOutcome r =
      run_bfs_runner("--engine=enterprise --scale=10 --sources=2 --validate");
  EXPECT_EQ(r.exit_code, 0) << r.out;
}

TEST(BfsRunner, HelpListsSuiteScaleAndExitCodes) {
  const RunOutcome r = run_bfs_runner("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("--suite-scale"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("5 undetected silent corruption"), std::string::npos);
  EXPECT_NE(r.out.find("6 --validate rejected a run"), std::string::npos);
}

}  // namespace
