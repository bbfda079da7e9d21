// The shared telemetry contract (DESIGN.md §8): one binding arms every
// observer of the DCC round loop at once without perturbing a schedule or
// the logical-cost stream, at any thread count; and one stream reader keeps
// the complete records of every sink kind and names a truncated final line
// by path:line.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/node_report.hpp"
#include "tgcover/app/profile_report.hpp"
#include "tgcover/app/quality_audit.hpp"
#include "tgcover/app/quality_report.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/app/trace_analysis.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------ arming contract

enum class Mode { kSchedule, kAsyncLossy, kRepair };

struct Outcome {
  std::vector<bool> mask;
  std::string cost;  ///< the --cost-out stream body
};

class ArmingContract : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(21);
    net_ = std::make_unique<core::Network>(core::prepare_network(
        gen::random_connected_udg(
            150, gen::side_for_average_degree(150, 1.0, 14.0), 1.0, rng),
        1.0));
    // The repair input: a plain schedule with every third awake internal
    // node crashed.
    core::DccConfig config;
    config.tau = 4;
    schedule_ = core::run_dcc(*net_, config).result.active;
    failed_.assign(schedule_.size(), false);
    std::size_t seen = 0;
    for (std::size_t v = 0; v < schedule_.size(); ++v) {
      if (schedule_[v] && net_->internal[v] && ++seen % 3 == 0) {
        failed_[v] = true;
      }
    }
  }
  static void TearDownTestSuite() { net_.reset(); }
  void TearDown() override { obs::set_enabled(false); }

  /// Runs `mode` with the round collector bound (it produces the cost
  /// stream) and, when `armed`, node telemetry, the quality auditor and a
  /// profiler session on top.
  static Outcome run(Mode mode, unsigned threads, bool armed) {
    const core::Network& net = *net_;
    core::DccConfig config;
    config.tau = 4;
    config.seed = 5;
    config.num_threads = threads;
    obs::set_enabled(true);
    obs::RoundCollector collector;
    std::unique_ptr<obs::NodeTelemetry> nodes;
    std::unique_ptr<obs::QualityAuditor> quality;
    if (armed) {
      nodes = std::make_unique<obs::NodeTelemetry>(
          net.dep.graph.num_vertices());
      app::QualityKnobs knobs;
      knobs.path = "armed";  // only emptiness matters to the factory
      quality = app::make_quality_auditor(net, config.tau, knobs);
      obs::profile_begin(util::ThreadPool::resolve_num_threads(threads));
    }
    Outcome out;
    {
      const obs::ObserverScope observe(
          {&collector, nodes.get(), quality.get()});
      if (mode == Mode::kSchedule) {
        out.mask = core::run_dcc(net, config).result.active;
      } else if (mode == Mode::kAsyncLossy) {
        core::DccAsyncOptions options;
        options.net.loss_probability = 0.1;
        out.mask = core::dcc_schedule_distributed_async(
                       net.dep.graph, net.internal, config, options)
                       .schedule.active;
      } else {
        out.mask = core::dcc_repair(net.dep.graph, net.internal, schedule_,
                                    failed_, net.cb, config)
                       .active;
      }
    }
    EXPECT_EQ(obs::bound_observers().rounds, nullptr);
    if (armed) {
      // Every observer really saw the run.
      EXPECT_GT(obs::profile_end().rounds, 0u);
      nodes->finalize();
      EXPECT_GT(nodes->summary().rounds, 0u);
      quality->finalize(out.mask);
      EXPECT_FALSE(quality->rounds().empty());
    }
    collector.finalize(0);
    EXPECT_FALSE(collector.events().empty());
    std::ostringstream cost;
    collector.write_cost_jsonl(cost);
    out.cost = cost.str();
    obs::set_enabled(false);
    return out;
  }

  static std::unique_ptr<core::Network> net_;
  static std::vector<bool> schedule_;
  static std::vector<bool> failed_;
};

std::unique_ptr<core::Network> ArmingContract::net_;
std::vector<bool> ArmingContract::schedule_;
std::vector<bool> ArmingContract::failed_;

TEST_F(ArmingContract, EveryObserverArmedLeavesMaskAndCostStreamIdentical) {
  for (const Mode mode : {Mode::kSchedule, Mode::kAsyncLossy, Mode::kRepair}) {
    const Outcome reference = run(mode, 1, /*armed=*/false);
    ASSERT_FALSE(reference.cost.empty());
    for (const unsigned threads : {1u, 4u}) {
      const Outcome armed = run(mode, threads, /*armed=*/true);
      const Outcome plain = run(mode, threads, /*armed=*/false);
      const int m = static_cast<int>(mode);
      EXPECT_EQ(armed.mask, reference.mask)
          << "mode " << m << " threads " << threads;
      EXPECT_EQ(plain.mask, reference.mask)
          << "mode " << m << " threads " << threads;
      EXPECT_EQ(armed.cost, reference.cost)
          << "mode " << m << " threads " << threads;
      EXPECT_EQ(plain.cost, reference.cost)
          << "mode " << m << " threads " << threads;
    }
  }
}

// ---------------------------------------------------- truncated streams

/// One sink kind: the complete records following the manifest line, and
/// what its loader reports as {records kept, the skipped-line findings}.
struct StreamKind {
  const char* name;
  std::vector<std::string> records;
  std::function<std::pair<std::size_t, std::vector<std::string>>(
      const std::string& path)>
      load;
};

std::vector<std::string> counted(std::size_t skipped) {
  return std::vector<std::string>(skipped, "");
}

const StreamKind kStreamKinds[] = {
    {"rounds",
     {R"({"type":"round","round":1,"active":9,"deleted":1})",
      R"({"type":"round","round":2,"active":8,"deleted":1})"},
     [](const std::string& path) {
       const app::RoundLog log = app::load_round_log(path);
       EXPECT_EQ(log.skipped, log.notes.size());
       return std::pair{log.rows.size(), log.notes};
     }},
    {"cost",
     {R"({"type":"cost","round":1,"phase":"verdicts","vpt_tests":3})",
      R"({"type":"cost_total","phase":"verdicts","vpt_tests":3})"},
     [](const std::string& path) {
       const app::RoundLog log = app::load_round_log(path);
       return std::pair{log.costs.size() + log.cost_totals.size(), log.notes};
     }},
    {"profile",
     {R"({"type":"profile_header","workers":2,"rounds":3})",
      R"({"type":"worker_summary","worker":1,"tasks":4})"},
     [](const std::string& path) {
       const app::ProfileLoad load = app::load_profile(path);
       EXPECT_TRUE(load.error.empty()) << load.error;
       std::size_t kept = 1;  // the header, or error would be set
       for (const obs::WorkerProfile& w : load.data.workers) {
         if (w.tasks > 0) ++kept;
       }
       return std::pair{kept, counted(load.skipped)};
     }},
    {"node",
     {R"({"type":"node_telemetry_header","nodes":2,"rounds":1})",
      R"({"type":"node_summary","node":0,"sent":1})"},
     [](const std::string& path) {
       const app::NodeTelemetryLoad load = app::load_node_telemetry(path);
       EXPECT_TRUE(load.error.empty()) << load.error;
       return std::pair{load.node_summaries.size() + 1,
                        counted(load.skipped)};
     }},
    {"quality",
     {R"({"type":"quality_header","tau":4})",
      R"({"type":"quality_round","round":0,"awake":9})"},
     [](const std::string& path) {
       const app::QualityLoad load = app::load_quality(path);
       EXPECT_TRUE(load.error.empty()) << load.error;
       return std::pair{load.rounds.size() + 1,  // + the header
                        counted(load.skipped)};
     }},
    {"fleet",
     {R"({"run":0,"status":"ok","survivors":9})",
      R"({"run":1,"status":"ok","survivors":8})"},
     [](const std::string& path) {
       const app::FleetSink sink = app::load_fleet_sink(path);
       EXPECT_TRUE(sink.error.empty()) << sink.error;
       return std::pair{sink.runs.size(), counted(sink.skipped)};
     }},
    {"trace",
     {R"({"type":"trace_header","events":1,"obs_compiled":1})",
      R"({"seq":1,"kind":"send","node":0,"peer":1,"flow":1})"},
     [](const std::string& path) {
       const app::TraceStats stats = app::analyze_trace_file(path);
       return std::pair{stats.events + 1,  // + the header
                        stats.violations};
     }},
};

class TruncatedStream : public ::testing::TestWithParam<StreamKind> {
 protected:
  void SetUp() override { dir_ = test::make_test_dir("observe_test"); }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(TruncatedStream, ReaderKeepsCompleteRecordsAndNamesTheCutLine) {
  const StreamKind& kind = GetParam();
  const std::string path =
      (dir_ / (std::string(kind.name) + ".jsonl")).string();
  {
    std::ofstream f(path, std::ios::binary);
    f << R"({"type":"manifest","tool":"tgcover","cfg_tau":"4"})" << "\n";
    for (const std::string& line : kind.records) f << line << "\n";
    // A killed run: the last record cut mid-field, no newline.
    f << kind.records.back().substr(0, kind.records.back().size() / 2);
  }
  const std::size_t cut_line = kind.records.size() + 2;
  const std::string note =
      path + ":" + std::to_string(cut_line) + ": skipping malformed record";

  std::vector<obs::JsonRecord> records;
  const obs::JsonlStream stream =
      obs::read_jsonl_stream(path, [&](obs::JsonRecord& rec) {
        records.push_back(rec);
        return std::string();
      });
  EXPECT_TRUE(stream.error.empty()) << stream.error;
  ASSERT_TRUE(stream.manifest.has_value());
  EXPECT_EQ(stream.manifest->text("cfg_tau"), "4");
  ASSERT_EQ(records.size(), kind.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {  // in file order
    EXPECT_EQ(records[i].fields(),
              obs::parse_jsonl_line(kind.records[i])->fields());
  }
  EXPECT_EQ(stream.notes, std::vector<std::string>{note});

  // The kind's loader keeps the same records and reports the one cut line.
  const auto [kept, findings] = kind.load(path);
  EXPECT_EQ(kept, kind.records.size());
  ASSERT_EQ(findings.size(), 1u);
  if (!findings.front().empty()) {
    EXPECT_EQ(findings.front(), note);
  }
}

INSTANTIATE_TEST_SUITE_P(StreamKinds, TruncatedStream,
                         ::testing::ValuesIn(kStreamKinds),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace tgc
