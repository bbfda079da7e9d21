// End-to-end tests of run provenance and the `tgcover report` dashboard:
// manifest sidecars + embedded stream headers, report fusion and its
// refusal paths (inconsistent trace, mismatched runs), byte-determinism of
// both the artifacts and the rendered HTML, and the version/help/diagnostic
// surfaces of the CLI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/app/cli.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::app {
namespace {

namespace fs = std::filesystem;

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string first_line(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

class ReportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::make_test_dir("report_test");
    // Pin the sidecar timestamp so manifests are byte-comparable, the same
    // way the CI determinism job does.
    setenv("TGC_RUN_TIMESTAMP", "2026-08-06T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
    sched_ = (dir_ / "sched.tgc").string();
    metrics_ = (dir_ / "metrics.jsonl").string();
    trace_ = (dir_ / "trace.jsonl").string();
  }
  void TearDown() override {
    unsetenv("TGC_RUN_TIMESTAMP");
    obs::reset_logging();
    obs::set_flight_capacity(0);
    fs::remove_all(dir_);
  }

  /// generate → distributed --async --loss with both JSONL sinks: the run
  /// every report test fuses. Extra flags (e.g. log options) are appended.
  void make_run(std::initializer_list<const char*> extra = {}) {
    std::string out;
    ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "220", "--degree",
                   "24", "--seed", "7", "--out", net_.c_str()},
                  &out),
              0)
        << out;
    std::vector<const char*> argv{
        "distributed", "--in",         net_.c_str(),   "--out",
        sched_.c_str(), "--tau",       "4",            "--seed",
        "3",            "--async",     "--loss",       "0.1",
        "--retransmit", "3",           "--metrics-out", metrics_.c_str(),
        "--trace-jsonl", trace_.c_str()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::vector<const char*> full{"tgcover"};
    full.insert(full.end(), argv.begin(), argv.end());
    std::ostringstream os;
    ASSERT_EQ(run_cli(static_cast<int>(full.size()), full.data(), os), 0)
        << os.str();
  }

  fs::path dir_;
  std::string net_, sched_, metrics_, trace_;
};

TEST_F(ReportFixture, ReportFusesARealRunAndIsByteDeterministic) {
  make_run();
  const std::string html_path = (dir_ / "report.html").string();
  std::string out;
  ASSERT_EQ(run({"report", "--rounds", metrics_.c_str(), "--trace",
                 trace_.c_str(), "--out", html_path.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("trace fused"), std::string::npos);

  const std::string html = read_file(html_path);
  // All four dashboard sections render from a real --async --loss run.
  for (const char* heading :
       {"Round timeline", "Coverage schedule", "Radio traffic",
        "Causal critical path", "Run provenance", "Per-round data"}) {
    EXPECT_NE(html.find(heading), std::string::npos) << heading;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("class=\"legend\""), std::string::npos);
  EXPECT_NE(html.find("retransmissions"), std::string::npos);

  // Self-contained: no external scripts, stylesheets, or images.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);

  // Rendering is a pure function of the inputs: a second render from the
  // same artifacts is byte-identical.
  const std::string html2_path = (dir_ / "report2.html").string();
  ASSERT_EQ(run({"report", "--rounds", metrics_.c_str(), "--trace",
                 trace_.c_str(), "--out", html2_path.c_str()},
                &out),
            0);
  EXPECT_EQ(html, read_file(html2_path));
}

TEST_F(ReportFixture, ReportWithoutTraceStillRendersRoundSections) {
  make_run();
  const std::string html_path = (dir_ / "report.html").string();
  std::string out;
  ASSERT_EQ(
      run({"report", "--rounds", metrics_.c_str(), "--out", html_path.c_str()},
          &out),
      0)
      << out;
  EXPECT_EQ(out.find("trace fused"), std::string::npos);
  const std::string html = read_file(html_path);
  EXPECT_NE(html.find("Round timeline"), std::string::npos);
  EXPECT_NE(html.find("Causal critical path"), std::string::npos);
  EXPECT_NE(html.find("--trace-jsonl"), std::string::npos);  // the hint
}

TEST_F(ReportFixture, ManifestSidecarAndEmbeddedHeadersAgree) {
  make_run();
  const fs::path sidecar = dir_ / "manifest.json";
  ASSERT_TRUE(fs::exists(sidecar));

  const auto side = obs::parse_jsonl_line(first_line(sidecar));
  ASSERT_TRUE(side.has_value());
  EXPECT_EQ(side->text("type"), "manifest");
  EXPECT_EQ(side->text("command"), "distributed");
  EXPECT_EQ(side->text("timestamp"), "2026-08-06T00:00:00Z");
  EXPECT_EQ(side->text("cfg_tau"), "4");
  EXPECT_EQ(side->text("cfg_loss"), "0.1");
  EXPECT_EQ(side->text("cfg_async"), "on");
  EXPECT_TRUE(side->has("exec_threads"));
  EXPECT_TRUE(side->has("exec_metrics-out"));
  EXPECT_FALSE(side->text("git_sha").empty());

  // Both streams start with the embedded header; it is the semantic subset
  // of the sidecar — same cfg_ values, no timestamp, no exec_ keys.
  for (const std::string& stream : {metrics_, trace_}) {
    const auto head = obs::parse_jsonl_line(first_line(stream));
    ASSERT_TRUE(head.has_value()) << stream;
    EXPECT_EQ(head->text("type"), "manifest");
    EXPECT_FALSE(head->has("timestamp"));
    for (const auto& [key, value] : head->fields()) {
      EXPECT_EQ(side->text(key), value) << key;
      EXPECT_NE(key.rfind("exec_", 0), 0u) << key;
    }
  }
}

TEST_F(ReportFixture, LoggingOptionsDoNotPerturbArtifacts) {
  make_run();
  const std::string sched_a = read_file(sched_);
  const std::string trace_a = read_file(trace_);

  // Re-run the identical config with every diagnostics knob turned up: the
  // schedule and the trace must stay byte-identical (log options are
  // execution detail — sidecar-only, never embedded, never on the wire).
  const std::string log_path = (dir_ / "run.log").string();
  make_run({"--log-level", "debug", "--flight", "64", "--log-out",
            log_path.c_str()});
  EXPECT_EQ(read_file(sched_), sched_a);
  EXPECT_EQ(read_file(trace_), trace_a);

  // The debug log actually captured the per-round lines (unless a raised
  // TGC_LOG_FLOOR compiled the debug sites out, which is the point of it).
#if TGC_LOG_FLOOR == 0
  const std::string log_text = read_file(log_path);
  EXPECT_NE(log_text.find("level=debug"), std::string::npos);
  EXPECT_NE(log_text.find("alpha-sync batch"), std::string::npos);
#endif
}

TEST_F(ReportFixture, ReportRefusesATruncatedTrace) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "tracing compiled out: no events to truncate";
  }
  make_run();
  // Cut the trace immediately after a round opens: the tail that would
  // close it is gone, which is exactly what a crashed run leaves behind.
  std::ifstream in(trace_);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
    if (line.find("sched_round_begin") != std::string::npos) break;
  }
  ASSERT_GT(lines.size(), 1u);
  const std::string cut = (dir_ / "truncated.jsonl").string();
  std::ofstream outf(cut);
  for (const std::string& l : lines) outf << l << "\n";
  outf.close();

  std::string out;
  EXPECT_EQ(run({"report", "--rounds", metrics_.c_str(), "--trace",
                 cut.c_str(), "--out", (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("violation:"), std::string::npos) << out;
  EXPECT_NE(out.find("refusing to fuse an inconsistent trace"),
            std::string::npos)
      << out;
  EXPECT_FALSE(fs::exists(dir_ / "r.html"));
}

TEST_F(ReportFixture, ReportRefusesArtifactsFromDifferentRuns) {
  make_run();
  // A second run with a different MIS seed into its own directory — its
  // trace must not fuse with the first run's round log.
  const fs::path other = dir_ / "b";
  fs::create_directories(other);
  const std::string metrics2 = (other / "metrics.jsonl").string();
  const std::string trace2 = (other / "trace.jsonl").string();
  std::string out;
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--out",
                 (other / "sched.tgc").string().c_str(), "--tau", "4",
                 "--seed", "9", "--async", "--loss", "0.1", "--retransmit",
                 "3", "--metrics-out", metrics2.c_str(), "--trace-jsonl",
                 trace2.c_str()},
                &out),
            0)
      << out;

  EXPECT_EQ(run({"report", "--rounds", metrics_.c_str(), "--trace",
                 trace2.c_str(), "--out", (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("come from different runs"), std::string::npos) << out;
  EXPECT_NE(out.find("cfg_seed"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(dir_ / "r.html"));
}

TEST_F(ReportFixture, ReportRequiresRoundRecords) {
  make_run();
  // A rounds file holding only the manifest header (a run that died before
  // its first round) is refused with a pointer at --metrics-out.
  const std::string empty = (dir_ / "header_only.jsonl").string();
  std::ofstream outf(empty);
  outf << first_line(metrics_) << "\n";
  outf.close();
  std::string out;
  EXPECT_EQ(run({"report", "--rounds", empty.c_str(), "--out",
                 (dir_ / "r.html").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no round records"), std::string::npos) << out;
}

TEST_F(ReportFixture, StatsAndTraceAnalyzeSkipTheManifestHeader) {
  make_run();
  std::string out;
  EXPECT_EQ(run({"stats", "--in", metrics_.c_str()}, &out), 0) << out;
  EXPECT_NE(out.find("summary:"), std::string::npos);
  EXPECT_EQ(run({"trace-analyze", "--in", trace_.c_str(), "--check"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("trace OK"), std::string::npos);
}

TEST_F(ReportFixture, VersionReportsBuildProvenance) {
  for (const char* spelling : {"version", "--version", "-V"}) {
    std::string out;
    EXPECT_EQ(run({spelling}, &out), 0);
    EXPECT_NE(out.find("tgcover "), std::string::npos) << spelling;
    EXPECT_NE(out.find("git:"), std::string::npos) << spelling;
    EXPECT_NE(out.find("build:"), std::string::npos) << spelling;
    EXPECT_NE(out.find("span timers compiled"), std::string::npos) << spelling;
  }
}

TEST_F(ReportFixture, HelpEnumeratesEverySubcommand) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  for (const char* cmd :
       {"generate", "schedule", "verify", "quality", "render", "distributed",
        "repair", "stats", "trace-analyze", "report", "version"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
  }
  EXPECT_NE(out.find("--log-level"), std::string::npos);
  EXPECT_NE(out.find("manifest.json"), std::string::npos);
}

TEST_F(ReportFixture, UnknownOptionNamesTheSubcommand) {
  try {
    run({"distributed", "--bogus", "1"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("tgcover distributed: unknown option --bogus"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ReportFixture, BadLogLevelNamesTheSubcommand) {
  try {
    run({"schedule", "--log-level", "loud"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tgcover schedule"), std::string::npos) << what;
    EXPECT_NE(what.find("bad --log-level 'loud'"), std::string::npos) << what;
  }
}

TEST_F(ReportFixture, UnwritableMetricsSinkFailsWithLoggedReason) {
  std::string gen_out;
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "120", "--degree",
                 "20", "--seed", "7", "--out", net_.c_str()},
                &gen_out),
            0);
  std::ostringstream log;
  obs::set_log_stream(&log);
  std::string out;
  EXPECT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--metrics-out", "/nonexistent-tgc-dir/metrics.jsonl"},
                &out),
            1);
  obs::set_log_stream(nullptr);
  EXPECT_NE(log.str().find("sink failed"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("error="), std::string::npos) << log.str();
}

}  // namespace
}  // namespace tgc::app
