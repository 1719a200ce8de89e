#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_util.h"

namespace rfly::bench {
namespace {

// PR 3 pinned the integer behavior (reject garbage instead of atoi's silent
// zero); these pin the floating-point side added for the fault-rate flags.
TEST(ParseCliNumber, AcceptsFloatingPoint) {
  double value = 0.0;
  EXPECT_TRUE(parse_cli_number("--set", "0.25", value).is_ok());
  EXPECT_EQ(value, 0.25);
  EXPECT_TRUE(parse_cli_number("--set", "-1e-3", value).is_ok());
  EXPECT_EQ(value, -1e-3);
  EXPECT_TRUE(parse_cli_number("--set", "3", value).is_ok());
  EXPECT_EQ(value, 3.0);
}

TEST(ParseCliNumber, RejectsTrailingGarbageAndNonFinite) {
  double value = 7.0;
  const Status garbage = parse_cli_number("--rate", "0.1x", value);
  EXPECT_EQ(garbage.code(), StatusCode::kParseError);
  EXPECT_NE(garbage.to_string().find("--rate"), std::string::npos);
  EXPECT_NE(garbage.to_string().find("0.1x"), std::string::npos);
  EXPECT_EQ(parse_cli_number("--rate", "", value).code(),
            StatusCode::kParseError);
  EXPECT_EQ(parse_cli_number("--rate", "nan", value).code(),
            StatusCode::kParseError);
  EXPECT_EQ(parse_cli_number("--rate", "inf", value).code(),
            StatusCode::kParseError);
  EXPECT_EQ(value, 7.0);  // failures never clobber the output
}

TEST(ParseCliNumber, IntegerBehaviorUnchanged) {
  int value = 0;
  EXPECT_TRUE(parse_cli_number("--trials", "100", value).is_ok());
  EXPECT_EQ(value, 100);
  EXPECT_EQ(parse_cli_number("--trials", "1O0", value).code(),
            StatusCode::kParseError);
  EXPECT_EQ(parse_cli_number("--trials", "3.5", value).code(),
            StatusCode::kParseError);
  unsigned threads = 0;
  EXPECT_EQ(parse_cli_number("--threads", "-1", threads).code(),
            StatusCode::kParseError);
}

// --search mirrors --kernel: a valid mode sets the knob and marks it
// explicit (so scenario_runner lets the flag override the scenario file);
// an unknown mode is a parse failure — the bench mains turn that false
// into a non-zero exit after CliOptions printed the error and usage.
TEST(CliOptions, SearchFlagParsesKnownModes) {
  char prog[] = "bench";
  char flag[] = "--search";
  char value[] = "coarse2fine";
  char* argv[] = {prog, flag, value};
  CliOptions opts;
  EXPECT_FALSE(opts.search_explicit);
  EXPECT_EQ(opts.search, localize::SarSearch::kExact);
  ASSERT_TRUE(opts.parse(3, argv));
  EXPECT_EQ(opts.search, localize::SarSearch::kCoarseToFine);
  EXPECT_TRUE(opts.search_explicit);

  char incremental[] = "incremental";
  char* argv2[] = {prog, flag, incremental};
  CliOptions opts2;
  ASSERT_TRUE(opts2.parse(3, argv2));
  EXPECT_EQ(opts2.search, localize::SarSearch::kIncremental);
}

TEST(CliOptions, SearchFlagRejectsUnknownModeAndMissingValue) {
  char prog[] = "bench";
  char flag[] = "--search";
  char banana[] = "banana";
  char* argv[] = {prog, flag, banana};
  CliOptions opts;
  EXPECT_FALSE(opts.parse(3, argv));
  EXPECT_EQ(opts.search, localize::SarSearch::kExact);  // never clobbered
  EXPECT_FALSE(opts.search_explicit);

  char* argv2[] = {prog, flag};  // trailing flag without a value
  CliOptions opts2;
  EXPECT_FALSE(opts2.parse(2, argv2));
}

// --seed is recorded like --kernel: explicit whatever its value, so the
// benches that fall back to a scenario's own seed honor `--seed 1` instead
// of reading it as "no --seed given".
TEST(CliOptions, SeedFlagIsExplicitEvenWhenItIsOne) {
  char prog[] = "bench";
  char* bare[] = {prog};
  CliOptions defaults;
  ASSERT_TRUE(defaults.parse(1, bare));
  EXPECT_EQ(defaults.seed, 1u);
  EXPECT_FALSE(defaults.seed_explicit);

  char flag[] = "--seed";
  char one[] = "1";
  char* argv[] = {prog, flag, one};
  CliOptions opts;
  ASSERT_TRUE(opts.parse(3, argv));
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_TRUE(opts.seed_explicit);
}

// `auto` was removed from the kernel knob. A command line that still passes
// it fails to parse — the bench exits 2 — with a message naming `fast`, the
// kernel `auto` used to pick.
TEST(CliOptions, KernelFlagRejectsRemovedAutoNamingFast) {
  char prog[] = "bench";
  char flag[] = "--kernel";
  char value[] = "auto";
  char* argv[] = {prog, flag, value};
  CliOptions opts;
  EXPECT_FALSE(opts.parse(3, argv));
  EXPECT_EQ(opts.kernel, localize::SarKernel::kFast);  // default untouched
  EXPECT_FALSE(opts.kernel_explicit);

  const std::string err = ::testing::TempDir() + "/rfly_kernel_auto.txt";
  const std::string command = std::string(RFLY_SCENARIO_RUNNER_PATH) +
                              " --kernel auto > /dev/null 2> " + err;
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 2) << command;
  std::ifstream in(err);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("PARSE_ERROR"), std::string::npos) << text;
  EXPECT_NE(text.find("'auto' was removed; use 'fast'"), std::string::npos)
      << text;
  std::remove(err.c_str());
}

TEST(Metrics, WriteCheckedReportsTypedIoError) {
  Metrics metrics;
  metrics.add("jobs", 3.0);
  const std::string path = "/no/such/dir/metrics.json";
  const Status status = metrics.write_checked(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.to_string().find(path), std::string::npos)
      << status.to_string();
}

TEST(Metrics, WriteCheckedSucceedsAndEmitsJson) {
  Metrics metrics;
  metrics.add("jobs", 3.0);
  metrics.add_json("sweep", "[1, 2]");
  const std::string path = ::testing::TempDir() + "/rfly_metrics.json";
  ASSERT_TRUE(metrics.write_checked(path).is_ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"jobs\": 3"), std::string::npos) << content;
  EXPECT_NE(content.find("\"sweep\": [1, 2]"), std::string::npos) << content;
  std::remove(path.c_str());
  // Empty path is the documented no-op.
  EXPECT_TRUE(metrics.write_checked("").is_ok());
}

TEST(TraceFile, UnwritableDirectoryYieldsError) {
  const obs::Trace trace = obs::drain_trace();
  std::string error;
  EXPECT_FALSE(obs::write_trace_file("/no/such/dir/trace.json", trace, &error));
  EXPECT_NE(error.find("/no/such/dir/trace.json"), std::string::npos) << error;
}

TEST(TraceFile, WritablePathAndSentinelsSucceed) {
  const obs::Trace trace = obs::drain_trace();
  std::string error;
  const std::string path = ::testing::TempDir() + "/rfly_trace.json";
  EXPECT_TRUE(obs::write_trace_file(path, trace, &error)) << error;
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  // "-" and "" mean "no file": success without touching the filesystem.
  EXPECT_TRUE(obs::write_trace_file("-", trace, &error));
  EXPECT_TRUE(obs::write_trace_file("", trace, &error));
}

}  // namespace
}  // namespace rfly::bench
