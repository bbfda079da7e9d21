// Logical cost model tests: the machine-independent work-unit layer that
// `tgcover compare` and the bench gate reason about.
//
//  * CostVec arithmetic, phase attribution (CostPhaseScope), CostModel
//    round profiles;
//  * the acceptance contract: --cost-out streams are byte-identical across
//    thread counts and log levels on the same build;
//  * `tgcover compare`: zero delta for identical-config runs, refusal
//    (naming the key) for mismatched configs, --allow-diff, and
//    byte-deterministic artifacts;
//  * `tgcover stats` / the round-log loader on malformed inputs: missing
//    files, truncated final lines, blank lines, duplicate round ids, and
//    manifest-only files are clean named errors, never crashes or silent
//    skips;
//  * HTML escaping of user-controlled strings in report and compare.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/app/cli.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/obs.hpp"

namespace tgc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- CostVec

TEST(CostVec, ArithmeticAndZero) {
  obs::CostVec a;
  EXPECT_TRUE(a.is_zero());
  a.units[static_cast<std::size_t>(obs::CounterId::kVptTests)] = 3;
  a.units[static_cast<std::size_t>(obs::CounterId::kMessages)] = 7;
  EXPECT_FALSE(a.is_zero());

  obs::CostVec b = a;
  b += a;
  EXPECT_EQ(b.get(obs::CounterId::kVptTests), 6u);
  EXPECT_EQ(b.get(obs::CounterId::kMessages), 14u);
  const obs::CostVec d = b - a;
  EXPECT_TRUE(d == a);
}

TEST(CostVec, LogicalCostExcludesSubsetsAndPayload) {
  // vpt_deletable / vpt_vetoed are subsets of vpt_tests, messages_lost a
  // subset of messages, payload_words a size not a count — none of them may
  // double-count into the scalar.
  obs::CostVec v;
  const auto set = [&v](obs::CounterId id, std::uint64_t n) {
    v.units[static_cast<std::size_t>(id)] = n;
  };
  set(obs::CounterId::kVptTests, 10);
  set(obs::CounterId::kVptDeletable, 6);
  set(obs::CounterId::kVptVetoed, 4);
  set(obs::CounterId::kBfsExpansions, 100);
  set(obs::CounterId::kHortonCandidates, 1000);
  set(obs::CounterId::kGf2Pivots, 10000);
  set(obs::CounterId::kMessages, 5);
  set(obs::CounterId::kPayloadWords, 99999);
  set(obs::CounterId::kRepairWaves, 2);
  set(obs::CounterId::kMessagesLost, 3);
  set(obs::CounterId::kRetransmissions, 1);
  EXPECT_EQ(obs::logical_cost(v), 10u + 100u + 1000u + 10000u + 5u + 1u + 2u);
}

// ---------------------------------------------------------- Phase scopes

TEST(CostPhase, ScopeAttributesAndRestores) {
  obs::set_enabled(true);
  const obs::CostSnapshot before = obs::cost_snapshot();
  ASSERT_EQ(obs::current_phase(), obs::CostPhase::kOther);
  {
    obs::CostPhaseScope verdicts(obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 2);
    {
      // Nested scopes (repair driving the scheduler) override and restore.
      obs::CostPhaseScope mis(obs::CostPhase::kMis);
      EXPECT_EQ(obs::current_phase(), obs::CostPhase::kMis);
      obs::add(obs::CounterId::kBfsExpansions, 5);
    }
    EXPECT_EQ(obs::current_phase(), obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 1);
  }
  EXPECT_EQ(obs::current_phase(), obs::CostPhase::kOther);
  const obs::CostSnapshot delta = obs::cost_snapshot() - before;
  obs::set_enabled(false);

  EXPECT_EQ(delta.phase(obs::CostPhase::kVerdicts)
                .get(obs::CounterId::kVptTests),
            3u);
  EXPECT_EQ(delta.phase(obs::CostPhase::kMis)
                .get(obs::CounterId::kBfsExpansions),
            5u);
  EXPECT_EQ(delta.phase(obs::CostPhase::kOther)
                .get(obs::CounterId::kVptTests),
            0u);
  EXPECT_EQ(delta.total().get(obs::CounterId::kVptTests), 3u);
}

TEST(CostModel, RoundProfilesAndTotals) {
  obs::set_enabled(true);
  obs::CostModel model;
  model.begin_round();
  {
    obs::CostPhaseScope scope(obs::CostPhase::kVerdicts);
    obs::add(obs::CounterId::kVptTests, 4);
  }
  model.end_round();
  model.begin_round();
  {
    obs::CostPhaseScope scope(obs::CostPhase::kDeletion);
    obs::add(obs::CounterId::kBfsExpansions, 9);
  }
  model.end_round();
  model.finalize();
  // Work after finalize must not leak into the frozen totals.
  obs::add(obs::CounterId::kVptTests, 100);
  obs::set_enabled(false);

  ASSERT_EQ(model.profiles().size(), 2u);
  EXPECT_EQ(model.profiles()[0]
                .delta.phase(obs::CostPhase::kVerdicts)
                .get(obs::CounterId::kVptTests),
            4u);
  EXPECT_TRUE(
      model.profiles()[0].delta.phase(obs::CostPhase::kDeletion).is_zero());
  EXPECT_EQ(model.profiles()[1]
                .delta.phase(obs::CostPhase::kDeletion)
                .get(obs::CounterId::kBfsExpansions),
            9u);
  EXPECT_EQ(model.totals().total().get(obs::CounterId::kVptTests), 4u);
  EXPECT_EQ(model.totals().total().get(obs::CounterId::kBfsExpansions), 9u);
}

// ---------------------------------------------------------------- Fixture

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = app::run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class CostCliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::make_test_dir("cost_test");
    setenv("TGC_RUN_TIMESTAMP", "2026-08-06T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
  }
  void TearDown() override {
    unsetenv("TGC_RUN_TIMESTAMP");
    obs::set_enabled(false);
    obs::reset_logging();
    fs::remove_all(dir_);
  }

  void make_network() {
    std::string out;
    ASSERT_EQ(run({"generate", "--nodes", "120", "--degree", "18", "--seed",
                   "3", "--out", net_.c_str()},
                  &out),
              0)
        << out;
  }

  /// Runs `schedule` into its own run directory and returns that directory.
  std::string make_run(const std::string& name, const char* seed,
                       std::initializer_list<const char*> extra = {}) {
    const fs::path rd = dir_ / name;
    fs::create_directories(rd);
    const std::string mask = (rd / "sched.tgc").string();
    const std::string metrics = (rd / "metrics.jsonl").string();
    std::vector<const char*> argv{"schedule", "--in",  net_.c_str(),
                                  "--seed",   seed,    "--out",
                                  mask.c_str(),        "--metrics-out",
                                  metrics.c_str()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    std::string out;
    std::vector<const char*> full{"tgcover"};
    full.insert(full.end(), argv.begin(), argv.end());
    std::ostringstream os;
    const int rc =
        app::run_cli(static_cast<int>(full.size()), full.data(), os);
    EXPECT_EQ(rc, 0) << os.str();
    return rd.string();
  }

  fs::path dir_;
  std::string net_;
};

// ---------------------------------------- Acceptance: stream determinism

TEST_F(CostCliFixture, CostStreamIdenticalAcrossThreadsAndLogLevels) {
  make_network();
  const std::string a = (dir_ / "a.jsonl").string();
  const std::string b = (dir_ / "b.jsonl").string();
  const std::string c = (dir_ / "c.jsonl").string();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sa.tgc").string().c_str(), "--cost-out", a.c_str(),
                 "--threads", "1", "--log-level", "warn"},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sb.tgc").string().c_str(), "--cost-out", b.c_str(),
                 "--threads", "4", "--log-level", "warn"},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out",
                 (dir_ / "sc.tgc").string().c_str(), "--cost-out", c.c_str(),
                 "--threads", "2", "--log-level", "debug", "--log-out",
                 (dir_ / "c.log").string().c_str()},
                &out),
            0)
      << out;

  const std::string bytes_a = read_file(a);
  EXPECT_FALSE(bytes_a.empty());
  // The whole file — embedded manifest header included — must agree: the
  // header carries only semantic config, never threads or log options.
  EXPECT_EQ(bytes_a, read_file(b)) << "thread count leaked into the stream";
  EXPECT_EQ(bytes_a, read_file(c)) << "log level leaked into the stream";
  EXPECT_NE(bytes_a.find("\"type\":\"cost\""), std::string::npos);
  EXPECT_NE(bytes_a.find("\"type\":\"cost_total\""), std::string::npos);
  EXPECT_NE(bytes_a.find("\"logical_cost\":"), std::string::npos);
}

TEST_F(CostCliFixture, MetricsStreamCarriesCostRecordsPerPhase) {
  make_network();
  const std::string rd = make_run("m", "1");
  const app::RoundLog log =
      app::load_round_log((fs::path(rd) / "metrics.jsonl").string());
  ASSERT_TRUE(log.error.empty()) << log.error;
  ASSERT_FALSE(log.rows.empty());
  ASSERT_FALSE(log.costs.empty());
  ASSERT_FALSE(log.cost_totals.empty());

  // Per-round cost records sum (with the post-round tail) to the totals.
  std::uint64_t per_round = 0;
  for (const app::CostRow& c : log.costs) per_round += c.logical_cost;
  std::uint64_t total = 0;
  for (const app::CostRow& c : log.cost_totals) total += c.logical_cost;
  EXPECT_GE(total, per_round);
  EXPECT_GT(per_round, 0u);

  // The verdict phase did the VPT work.
  bool saw_verdicts = false;
  for (const app::CostRow& c : log.cost_totals) {
    if (c.phase == "verdicts") {
      saw_verdicts = true;
      EXPECT_GT(c.vec.get(obs::CounterId::kVptTests), 0u);
    }
  }
  EXPECT_TRUE(saw_verdicts);
}

// ------------------------------------------------------------- compare

TEST_F(CostCliFixture, CompareIdenticalConfigsReportsZeroDelta) {
  make_network();
  const std::string ra = make_run("a", "1");
  const std::string rb = make_run("b", "1", {"--threads", "4"});
  const std::string json = (dir_ / "cmp.json").string();
  const std::string html = (dir_ / "cmp.html").string();
  std::string out;
  ASSERT_EQ(run({"compare", ra.c_str(), rb.c_str(), "--json", json.c_str(),
                 "--out", html.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("delta 0, 0.00%"), std::string::npos) << out;
  EXPECT_NE(out.find("0 regression(s)"), std::string::npos) << out;

  const std::string delta = read_file(json);
  EXPECT_NE(delta.find("\"logical_cost_delta\":0"), std::string::npos);
  EXPECT_NE(delta.find("\"wall_clock\":\"advisory\""), std::string::npos);
  EXPECT_NE(delta.find("\"regressions\":[]"), std::string::npos);
}

TEST_F(CostCliFixture, CompareRefusesMismatchedConfigNamingTheKey) {
  make_network();
  const std::string ra = make_run("a", "1");
  const std::string rb = make_run("b", "9");
  std::string out;
  EXPECT_EQ(run({"compare", ra.c_str(), rb.c_str(), "--json", "", "--out",
                 ""},
                &out),
            1)
      << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("'seed'"), std::string::npos) << out;
  EXPECT_NE(out.find("--allow-diff seed"), std::string::npos) << out;
}

TEST_F(CostCliFixture, CompareAllowDiffAdmitsTheNamedKey) {
  make_network();
  const std::string ra = make_run("a", "1");
  const std::string rb = make_run("b", "9");
  const std::string json = (dir_ / "cmp.json").string();
  std::string out;
  ASSERT_EQ(run({"compare", ra.c_str(), rb.c_str(), "--allow-diff", "seed",
                 "--json", json.c_str(), "--out",
                 (dir_ / "cmp.html").string().c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(read_file(json).find("\"type\":\"compare\""), std::string::npos);
}

TEST_F(CostCliFixture, CompareArtifactsAreByteDeterministic) {
  make_network();
  const std::string ra = make_run("a", "1");
  const std::string rb = make_run("b", "9");
  std::string out;
  for (const char* suffix : {"1", "2"}) {
    const std::string json = (dir_ / (std::string("d") + suffix + ".json"))
                                 .string();
    const std::string html = (dir_ / (std::string("d") + suffix + ".html"))
                                 .string();
    ASSERT_EQ(run({"compare", ra.c_str(), rb.c_str(), "--allow-diff", "seed",
                   "--json", json.c_str(), "--out", html.c_str()},
                  &out),
              0)
        << out;
  }
  EXPECT_EQ(read_file(dir_ / "d1.html"), read_file(dir_ / "d2.html"));
  EXPECT_EQ(read_file(dir_ / "d1.json"), read_file(dir_ / "d2.json"));
}

TEST_F(CostCliFixture, CompareNeedsTwoRunsAndNamesMissingOnes) {
  std::string out;
  EXPECT_EQ(run({"compare", "only-one"}, &out), 1);
  EXPECT_NE(out.find("at least two runs"), std::string::npos) << out;

  make_network();
  const std::string ra = make_run("a", "1");
  EXPECT_EQ(run({"compare", ra.c_str(), (dir_ / "nope").string().c_str()},
                &out),
            1);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("nope"), std::string::npos) << out;
}

TEST_F(CostCliFixture, CompareEscapesHostileStringsInTheDashboard) {
  make_network();
  // A run directory whose name carries every character the HTML layer must
  // escape; it flows into the dashboard via labels and the manifest table.
  const std::string ra = make_run("evil <&\"> run", "1");
  const std::string rb = make_run("b", "1");
  const std::string html = (dir_ / "cmp.html").string();
  std::string out;
  ASSERT_EQ(run({"compare", ra.c_str(), rb.c_str(), "--json", "", "--out",
                 html.c_str(), "--title", "cmp <&\"> title"},
                &out),
            0)
      << out;
  const std::string doc = read_file(html);
  EXPECT_NE(doc.find("evil &lt;&amp;&quot;&gt; run"), std::string::npos);
  EXPECT_NE(doc.find("cmp &lt;&amp;&quot;&gt; title"), std::string::npos);
  EXPECT_EQ(doc.find("evil <&\"> run"), std::string::npos)
      << "unescaped user-controlled string reached the dashboard";
}

TEST_F(CostCliFixture, ReportEscapesHostilePathsAndTitles) {
  // The network lives under a directory whose name carries every character
  // the HTML layer must escape; the path reaches the report through the
  // cfg_in manifest value and must land in the provenance table escaped.
  const fs::path evil = dir_ / "net <&\"> dir";
  fs::create_directories(evil);
  net_ = (evil / "net.tgc").string();
  make_network();
  const std::string rd = make_run("run", "1");
  const std::string html = (dir_ / "rep.html").string();
  std::string out;
  ASSERT_EQ(run({"report", rd.c_str(), "--out", html.c_str(), "--title",
                 "rep <&\"> title"},
                &out),
            0)
      << out;
  const std::string doc = read_file(html);
  EXPECT_NE(doc.find("rep &lt;&amp;&quot;&gt; title"), std::string::npos);
  EXPECT_NE(doc.find("net &lt;&amp;&quot;&gt; dir"), std::string::npos);
  EXPECT_EQ(doc.find("<&\">"), std::string::npos)
      << "unescaped user-controlled string reached the report";
  EXPECT_NE(doc.find("Logical cost timeline"), std::string::npos);
  EXPECT_NE(doc.find("Logical cost by phase"), std::string::npos);
}

// ------------------------------------------------- round-log edge cases

class RoundLogEdgeFixture : public CostCliFixture {
 protected:
  std::string write_lines(const std::string& name,
                          const std::vector<std::string>& lines,
                          bool final_newline = true) {
    const std::string path = (dir_ / name).string();
    std::ofstream f(path, std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      f << lines[i];
      if (i + 1 < lines.size() || final_newline) f << "\n";
    }
    return path;
  }
};

TEST_F(RoundLogEdgeFixture, MissingFileIsANamedErrorNotACrash) {
  const std::string path = (dir_ / "absent.jsonl").string();
  const app::RoundLog log = app::load_round_log(path);
  EXPECT_FALSE(log.error.empty());
  EXPECT_NE(log.error.find("absent.jsonl"), std::string::npos);

  std::string out;
  EXPECT_EQ(run({"stats", path.c_str()}, &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("absent.jsonl"), std::string::npos) << out;
}

TEST_F(RoundLogEdgeFixture, TruncatedFinalLineIsSkippedLoudly) {
  const std::string path = write_lines(
      "trunc.jsonl",
      {R"({"type":"round","round":1,"active":10,"deleted":1})",
       R"({"type":"round","round":2,"act)"},
      /*final_newline=*/false);
  const app::RoundLog log = app::load_round_log(path);
  EXPECT_TRUE(log.error.empty());
  EXPECT_EQ(log.rows.size(), 1u);
  EXPECT_EQ(log.skipped, 1u);
  ASSERT_FALSE(log.notes.empty());

  std::string out;
  EXPECT_EQ(run({"stats", path.c_str()}, &out), 1) << out;
}

TEST_F(RoundLogEdgeFixture, BlankLinesAreSkippedLoudly) {
  const std::string path = write_lines(
      "blank.jsonl", {R"({"type":"round","round":1,"active":10})", "",
                      R"({"type":"round","round":2,"active":9})", ""});
  const app::RoundLog log = app::load_round_log(path);
  EXPECT_TRUE(log.error.empty());
  EXPECT_EQ(log.rows.size(), 2u);
  EXPECT_EQ(log.skipped, 2u);

  std::string out;
  EXPECT_EQ(run({"stats", path.c_str()}, &out), 1) << out;
}

TEST_F(RoundLogEdgeFixture, DuplicateRoundIdsAreDroppedLoudly) {
  const std::string path = write_lines(
      "dup.jsonl", {R"({"type":"round","round":1,"active":10,"deleted":1})",
                    R"({"type":"round","round":1,"active":10,"deleted":1})",
                    R"({"type":"round","round":2,"active":9,"deleted":1})"});
  const app::RoundLog log = app::load_round_log(path);
  EXPECT_TRUE(log.error.empty());
  ASSERT_EQ(log.rows.size(), 2u);
  EXPECT_EQ(log.rows[0].round, 1u);
  EXPECT_EQ(log.rows[1].round, 2u);
  EXPECT_EQ(log.skipped, 1u);
  bool named = false;
  for (const std::string& note : log.notes) {
    if (note.find("round") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named);

  std::string out;
  EXPECT_EQ(run({"stats", path.c_str()}, &out), 1) << out;
}

TEST_F(RoundLogEdgeFixture, ManifestOnlyFileIsACleanError) {
  const std::string path = write_lines(
      "manifest_only.jsonl",
      {R"({"type":"manifest","command":"schedule","cfg_tau":"4"})"});
  const app::RoundLog log = app::load_round_log(path);
  EXPECT_TRUE(log.error.empty());
  ASSERT_TRUE(log.manifest.has_value());
  EXPECT_TRUE(log.rows.empty());
  EXPECT_EQ(log.skipped, 0u);  // the manifest itself is never "skipped"

  std::string out;
  EXPECT_EQ(run({"stats", path.c_str()}, &out), 1) << out;
  EXPECT_NE(out.find("manifest only"), std::string::npos) << out;
}

TEST_F(RoundLogEdgeFixture, RunBundlePrefersEmbeddedManifestConfig) {
  make_network();
  const std::string rd = make_run("a", "1");
  const app::RunBundle bundle = app::load_run_bundle(rd);
  ASSERT_TRUE(bundle.error.empty()) << bundle.error;
  EXPECT_TRUE(bundle.manifest_found);
  EXPECT_EQ(bundle.config.at("command"), "schedule");
  EXPECT_EQ(bundle.config.at("cfg_seed"), "1");
  // Execution detail must never leak into the comparable identity.
  for (const auto& [key, value] : bundle.config) {
    EXPECT_EQ(key.find("threads"), std::string::npos) << key;
    EXPECT_EQ(key.find("metrics"), std::string::npos) << key;
  }
}

TEST_F(RoundLogEdgeFixture, RunBundleNamesEmptyDirectories) {
  const fs::path empty = dir_ / "empty_run";
  fs::create_directories(empty);
  const app::RunBundle bundle = app::load_run_bundle(empty.string());
  EXPECT_FALSE(bundle.error.empty());
  EXPECT_NE(bundle.error.find("empty_run"), std::string::npos);
}

}  // namespace
}  // namespace tgc
