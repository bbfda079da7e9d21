// Telemetry subsystem tests: shard merging across ThreadPool workers, phase
// scope timing, JSONL round-trip through `tgcover stats`, and the contract that
// matters most — telemetry never changes a schedule. Every test is written
// to pass both with TGC_OBS=ON (counters live) and TGC_OBS=OFF (everything
// compiles to no-ops), branching on obs::kCompiledIn where the two differ.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/app/cli.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc {
namespace {

namespace fs = std::filesystem;

core::Network small_network(std::uint64_t seed) {
  util::Rng rng(seed);
  return core::prepare_network(
      gen::random_connected_udg(
          150, gen::side_for_average_degree(150, 1.0, 18.0), 1.0, rng),
      1.0);
}

// ---------------------------------------------------------------- Registry

TEST(ObsRegistry, CounterMergeAcrossThreads) {
  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  constexpr std::size_t kIncrements = 10000;

  util::ThreadPool pool(4);
  pool.parallel_for(0, kIncrements, [](std::size_t, unsigned) {
    obs::add(obs::CounterId::kMessages, 1);
    obs::add(obs::CounterId::kPayloadWords, 3);
  });

  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  // Every worker counted into its own shard; the snapshot merge must not
  // lose or double-count a single increment. Logical counters are NOT
  // behind the TGC_OBS gate, so this holds in both builds.
  EXPECT_EQ(delta.get(obs::CounterId::kMessages), kIncrements);
  EXPECT_EQ(delta.get(obs::CounterId::kPayloadWords), 3 * kIncrements);
}

TEST(ObsRegistry, DisabledAddsAreDropped) {
  obs::set_enabled(false);
  const obs::Metrics before = obs::snapshot();
  obs::add(obs::CounterId::kMessages, 1000);
  const obs::Metrics delta = obs::snapshot() - before;
  EXPECT_EQ(delta.get(obs::CounterId::kMessages), 0u);
}

TEST(ObsRegistry, CounterAndSpanNamesAreStable) {
  // The JSONL schema and `tgcover stats` key off these strings.
  EXPECT_EQ(obs::counter_name(obs::CounterId::kVptTests), "vpt_tests");
  EXPECT_EQ(obs::counter_name(obs::CounterId::kGf2Pivots), "gf2_pivots");
  EXPECT_EQ(obs::counter_name(obs::CounterId::kMessages), "messages");
  EXPECT_EQ(obs::cost_phase_name(obs::CostPhase::kVerdicts), "verdicts");
  EXPECT_EQ(obs::cost_phase_name(obs::CostPhase::kRepair), "repair");
  // The per-phase wall-clock columns keep their names and order.
  obs::RoundCollector collector;
  collector.finalize(0);
  std::ostringstream out;
  collector.write_jsonl(out);
  const std::string text = out.str();
  std::size_t at = 0;
  for (const char* column :
       {"\"ns_verdicts\":", "\"ns_mis\":", "\"ns_deletion\":",
        "\"ns_khop_collect\":", "\"ns_repair_wave\":"}) {
    at = text.find(column, at);
    ASSERT_NE(at, std::string::npos) << column << " in " << text;
  }
}

// ------------------------------------------------------------ Phase timers

TEST(ObsSpan, NestedPhaseScopesTimeEachPhase) {
  obs::set_enabled(true);
  const obs::Metrics before = obs::snapshot();
  {
    const obs::CostPhaseScope verdicts(obs::CostPhase::kVerdicts);
    {
      const obs::CostPhaseScope mis(obs::CostPhase::kMis);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  if (obs::kCompiledIn) {
    EXPECT_GE(delta.ns(obs::CostPhase::kMis), 1'000'000u);
    // A scope's time includes the scopes nested in it.
    EXPECT_GE(delta.ns(obs::CostPhase::kVerdicts),
              delta.ns(obs::CostPhase::kMis));
  } else {
    EXPECT_EQ(delta.ns(obs::CostPhase::kVerdicts), 0u);
    EXPECT_EQ(delta.ns(obs::CostPhase::kMis), 0u);
  }
  EXPECT_EQ(delta.ns(obs::CostPhase::kDeletion), 0u);
  EXPECT_EQ(delta.ns(obs::CostPhase::kOther), 0u);
}

TEST(ObsSpan, ToggleMidSpanNeverHalfRecords) {
  obs::set_enabled(false);
  const obs::Metrics before = obs::snapshot();
  {
    // Constructed while disabled; enabling mid-scope must not record.
    const obs::CostPhaseScope scope(obs::CostPhase::kDeletion);
    obs::set_enabled(true);
  }
  const obs::Metrics delta = obs::snapshot() - before;
  obs::set_enabled(false);
  EXPECT_EQ(delta.ns(obs::CostPhase::kDeletion), 0u);
}

// ------------------------------------------------------------------- JSONL

TEST(ObsJsonl, ParsesFlatRecords) {
  const auto rec = obs::parse_jsonl_line(
      R"({"type":"round","round":3,"active":42,"ratio":0.5,"name":"x"})");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("type"), "round");
  EXPECT_EQ(rec->u64("round"), 3u);
  EXPECT_EQ(rec->u64("active"), 42u);
  EXPECT_DOUBLE_EQ(rec->number("ratio"), 0.5);
  EXPECT_EQ(rec->text("name"), "x");
  EXPECT_EQ(rec->u64("missing", 7), 7u);
  EXPECT_FALSE(rec->has("missing"));
}

TEST(ObsJsonl, RejectsMalformedLines) {
  EXPECT_FALSE(obs::parse_jsonl_line("").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1)").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(obs::parse_jsonl_line(R"({"a")").has_value());
}

TEST(ObsCollector, RoundTripThroughWriter) {
  obs::set_enabled(true);
  const core::Network net = small_network(7);
  core::DccConfig config;
  config.tau = 4;
  obs::RoundCollector collector;
  const core::ScheduleSummary s = [&] {
    const obs::ObserverScope observe({&collector, nullptr, nullptr});
    return core::run_dcc(net, config);
  }();
  collector.finalize(s.result.survivors);
  obs::set_enabled(false);

  ASSERT_EQ(collector.events().size(), s.result.per_round.size());
  for (std::size_t i = 0; i < collector.events().size(); ++i) {
    const obs::RoundEvent& ev = collector.events()[i];
    EXPECT_EQ(ev.round, i + 1);
    EXPECT_EQ(ev.candidates, s.result.per_round[i].candidates);
    EXPECT_EQ(ev.deleted, s.result.per_round[i].deleted);
  }
  ASSERT_FALSE(collector.events().empty());
  EXPECT_EQ(collector.events().back().active, s.result.survivors);

  std::ostringstream jsonl;
  collector.write_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::string line;
  std::size_t rounds = 0;
  std::size_t cost_records = 0;
  std::size_t cost_totals = 0;
  std::uint64_t per_round_tests = 0;
  std::optional<obs::JsonRecord> summary;
  while (std::getline(in, line)) {
    const auto rec = obs::parse_jsonl_line(line);
    ASSERT_TRUE(rec.has_value()) << line;
    const std::string type = rec->text("type");
    if (type == "round") {
      ++rounds;
      per_round_tests += rec->u64("vpt_tests");
    } else if (type == "cost") {
      ++cost_records;
    } else if (type == "cost_total") {
      ++cost_totals;
    } else {
      ASSERT_EQ(type, "summary");
      summary = *rec;
    }
  }
  ASSERT_TRUE(summary.has_value());
  // The stream interleaves per-phase logical-cost records with the rounds.
  EXPECT_GT(cost_records, 0u);
  EXPECT_GT(cost_totals, 0u);
  EXPECT_EQ(rounds, s.result.rounds);
  EXPECT_EQ(summary->u64("rounds"), s.result.rounds);
  EXPECT_EQ(summary->u64("survivors"), s.result.survivors);
  EXPECT_EQ(summary->u64("obs_compiled"), obs::kCompiledIn ? 1u : 0u);
  // The summary totals span the whole run, including the final fixpoint
  // round that found no candidates — so they dominate the per-round sum.
  // Logical counters are live in both TGC_OBS builds.
  EXPECT_GE(summary->u64("vpt_tests"), per_round_tests);
  EXPECT_GT(per_round_tests, 0u);
  EXPECT_EQ(summary->u64("vpt_tests"), s.result.vpt_tests);
}

// ----------------------------------------------------------- Determinism

TEST(ObsDeterminism, TelemetryNeverChangesTheSchedule) {
  const core::Network net = small_network(11);
  for (const unsigned threads : {1u, 2u}) {
    core::DccConfig plain;
    plain.tau = 4;
    plain.seed = 9;
    plain.num_threads = threads;
    obs::set_enabled(false);
    const core::ScheduleSummary baseline = core::run_dcc(net, plain);

    obs::set_enabled(true);
    obs::RoundCollector collector;
    const core::ScheduleSummary metered_run = [&] {
      const obs::ObserverScope observe({&collector, nullptr, nullptr});
      return core::run_dcc(net, plain);
    }();
    collector.finalize(metered_run.result.survivors);
    obs::set_enabled(false);

    EXPECT_EQ(baseline.result.active, metered_run.result.active)
        << "threads=" << threads;
    EXPECT_EQ(baseline.result.rounds, metered_run.result.rounds);
    ASSERT_EQ(baseline.result.per_round.size(),
              metered_run.result.per_round.size());
    for (std::size_t i = 0; i < baseline.result.per_round.size(); ++i) {
      EXPECT_EQ(baseline.result.per_round[i].candidates,
                metered_run.result.per_round[i].candidates);
      EXPECT_EQ(baseline.result.per_round[i].deleted,
                metered_run.result.per_round[i].deleted);
    }
  }
}

// ------------------------------------------------------------------- CLI

int run(std::initializer_list<const char*> argv,
        std::string* captured = nullptr) {
  std::vector<const char*> full{"tgcover"};
  full.insert(full.end(), argv.begin(), argv.end());
  std::ostringstream out;
  const int rc = app::run_cli(static_cast<int>(full.size()), full.data(), out);
  if (captured != nullptr) *captured = out.str();
  return rc;
}

class ObsCliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::make_test_dir("obs_test");
    net_ = (dir_ / "net.tgc").string();
    sched_ = (dir_ / "sched.tgc").string();
    jsonl_ = (dir_ / "metrics.jsonl").string();
  }
  void TearDown() override {
    obs::set_enabled(false);  // --metrics leaves the runtime switch on
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::string net_;
  std::string sched_;
  std::string jsonl_;
};

TEST_F(ObsCliFixture, MetricsOutFeedsStats) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "18", "--seed",
                 "3", "--out", net_.c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--metrics-out", jsonl_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("round records + summary"), std::string::npos);
  ASSERT_TRUE(fs::exists(jsonl_));

  // Positional form.
  ASSERT_EQ(run({"stats", jsonl_.c_str()}, &out), 0) << out;
  EXPECT_NE(out.find("round"), std::string::npos);
  EXPECT_NE(out.find("summary:"), std::string::npos);
  EXPECT_NE(out.find("survivors"), std::string::npos);

  // --in form, CSV output: header + one line per round.
  ASSERT_EQ(run({"stats", "--in", jsonl_.c_str(), "--csv"}, &out), 0) << out;
  EXPECT_NE(out.find("round,active,cand"), std::string::npos);

  // A corrupted line is skipped loudly and flips the exit code.
  {
    std::ofstream f(jsonl_, std::ios::app);
    f << "this is not json\n";
  }
  EXPECT_EQ(run({"stats", jsonl_.c_str()}, &out), 1) << out;
}

TEST_F(ObsCliFixture, ScheduleIdenticalWithAndWithoutMetrics) {
  std::string out;
  ASSERT_EQ(run({"generate", "--nodes", "150", "--degree", "18", "--seed",
                 "5", "--out", net_.c_str()},
                &out),
            0)
      << out;
  const std::string plain = (dir_ / "plain.tgc").string();
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", plain.c_str()},
                &out),
            0)
      << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--out", sched_.c_str(),
                 "--metrics-out", jsonl_.c_str(), "--threads", "2"},
                &out),
            0)
      << out;

  std::ifstream a(plain, std::ios::binary), b(sched_, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str())
      << "telemetry or threading changed the schedule mask";
}

}  // namespace
}  // namespace tgc
