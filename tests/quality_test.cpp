// End-to-end tests of the coverage-quality auditor (DESIGN.md §15): the
// arming-perturbs-nothing contract (schedule masks and cost streams are
// byte-identical with --quality-out on or off, and the quality stream is
// byte-identical across thread counts), a repair run holding the
// Proposition 1 hole-diameter bound with positive margin, a synthetic
// over-deletion driving the auditor into a recorded bound_violation, the
// stream loader + byte-deterministic quality-report rendering, the report
// command fusing an adjacent quality sink, and the fleet integration
// (per-run summary columns, the shared quality sink, and the --resume
// armed/unarmed consistency refusal).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "test_dirs.hpp"
#include "tgcover/app/cli.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/quality_audit.hpp"
#include "tgcover/app/quality_report.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/quality.hpp"

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

class QualityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::make_test_dir("quality_test");
    setenv("TGC_RUN_TIMESTAMP", "2026-08-07T00:00:00Z", 1);
    net_ = (dir_ / "net.tgc").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void generate(const char* nodes, const char* seed) {
    ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", nodes, "--degree",
                   "10", "--seed", seed, "--out", net_.c_str()}),
              0);
  }

  fs::path dir_;
  std::string net_;
};

TEST_F(QualityFixture, ArmingLeavesMaskAndCostStreamByteIdentical) {
  generate("80", "7");
  const std::string mask_q = (dir_ / "mask-q.tgc").string();
  const std::string mask_p = (dir_ / "mask-p.tgc").string();
  const std::string cost_q = (dir_ / "cost-q.jsonl").string();
  const std::string cost_p = (dir_ / "cost-p.jsonl").string();
  const std::string quality = (dir_ / "quality.jsonl").string();
  std::string out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask_q.c_str(), "--cost-out", cost_q.c_str(),
                 "--quality-out", quality.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote quality audit"), std::string::npos) << out;
  ASSERT_EQ(run({"schedule", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask_p.c_str(), "--cost-out", cost_p.c_str()}),
            0);
  // The probe re-enters counted kernels under a CostAuditScope; the gated
  // cost stream and the schedule must not move by a single byte.
  EXPECT_EQ(read_file(mask_q), read_file(mask_p));
  EXPECT_EQ(read_file(cost_q), read_file(cost_p));

  const QualityLoad load = load_quality(quality);
  ASSERT_TRUE(load.error.empty()) << load.error;
  EXPECT_TRUE(load.manifest.has_value());
  EXPECT_TRUE(load.summary.has_value());
  EXPECT_FALSE(load.rounds.empty());
  EXPECT_TRUE(load.bound_finite());  // rs = rc = 1 -> gamma = 1
}

TEST_F(QualityFixture, QualityStreamIsThreadCountInvariant) {
  generate("80", "5");
  const std::string q1 = (dir_ / "q1.jsonl").string();
  const std::string q2 = (dir_ / "q2.jsonl").string();
  const std::string m1 = (dir_ / "m1.tgc").string();
  const std::string m2 = (dir_ / "m2.tgc").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4",
                 "--threads", "1", "--out", m1.c_str(), "--quality-out",
                 q1.c_str()}),
            0);
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4",
                 "--threads", "2", "--out", m2.c_str(), "--quality-out",
                 q2.c_str()}),
            0);
  EXPECT_EQ(read_file(m1), read_file(m2));
  EXPECT_EQ(read_file(q1), read_file(q2));
}

TEST_F(QualityFixture, LossyAsyncRepairRunHoldsTheBoundWithMargin) {
  // A lossy async run and a crash-repair pass on the same network: both must
  // record a strictly positive minimum bound margin and zero violations —
  // Fig. 6's claim as a continuously checked invariant. Rs = 0.7 puts
  // γ = 1/0.7 ≈ 1.43 in the (2·sin(π/4), 2] band where the paper bound is
  // the finite, non-trivial (τ−2)·Rc = 2 (at γ ≤ √2 blanket coverage is
  // guaranteed instead and the bound collapses to 0). Much denser than the
  // other fixtures: repair can only re-certify after losing awake survivors
  // when their neighbourhoods still carry enough short cycles (cf. the
  // RepairFixture density, ~degree 30).
  ASSERT_EQ(run({"generate", "--type", "udg", "--nodes", "200", "--degree",
                 "28", "--seed", "3", "--out", net_.c_str()}),
            0);
  const std::string mask = (dir_ / "mask.tgc").string();
  const std::string q_lossy = (dir_ / "q-lossy.jsonl").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4", "--async",
                 "--loss", "0.1", "--rs", "0.7", "--out", mask.c_str(),
                 "--quality-out", q_lossy.c_str()}),
            0);
  const QualityLoad lossy = load_quality(q_lossy);
  ASSERT_TRUE(lossy.error.empty()) << lossy.error;
  ASSERT_TRUE(lossy.summary.has_value());
  EXPECT_EQ(lossy.summary->u64("violations"), 0u);
  EXPECT_GT(lossy.summary->number("bound_margin"), 0.0);
  EXPECT_GE(lossy.summary->u64("rounds_sampled"), 2u);  // round 0 + rounds

  // Crash a handful of internal survivors and audit the repair waves.
  // Boundary-cycle nodes are powered infrastructure (cf. lifetime's energy
  // model) — losing one severs CB itself and no certificate can exist.
  const core::Network net =
      core::prepare_network(io::load_deployment(net_), 1.0);
  const std::vector<bool> active = io::load_mask(mask);
  std::vector<bool> failed(active.size(), false);
  std::size_t crashed = 0;
  for (std::size_t v = 0; v < active.size() && crashed < 3; ++v) {
    if (active[v] && net.internal[v]) {
      failed[v] = true;
      ++crashed;
    }
  }
  ASSERT_EQ(crashed, 3u);
  const std::string failed_path = (dir_ / "failed.tgc").string();
  io::save_mask(failed, failed_path);
  const std::string repaired = (dir_ / "repaired.tgc").string();
  const std::string q_repair = (dir_ / "q-repair.jsonl").string();
  std::string out;
  ASSERT_EQ(run({"repair", "--in", net_.c_str(), "--schedule", mask.c_str(),
                 "--failed", failed_path.c_str(), "--out", repaired.c_str(),
                 "--rs", "0.7", "--quality-out", q_repair.c_str()},
                &out),
            0)
      << out;
  const QualityLoad repair = load_quality(q_repair);
  ASSERT_TRUE(repair.error.empty()) << repair.error;
  ASSERT_TRUE(repair.summary.has_value());
  EXPECT_EQ(repair.summary->u64("violations"), 0u);
  EXPECT_GT(repair.summary->number("bound_margin"), 0.0);
}

TEST_F(QualityFixture, OverDeletionRecordsABoundViolationEvent) {
  // Synthetic SLO breach: deactivate every node in a disk wider than the
  // (τ−2)·Rc = 2 bound around the target center. The auditor must flag the
  // resulting hole as a violation, count it in the summary, and emit a
  // bound_violation event line in the stream.
  GenSpec g;
  g.nodes = 150;
  g.degree = 10.0;
  g.seed = 3;
  const core::Network net = core::prepare_network(generate_deployment(g), 1.0);
  QualityKnobs knobs;
  knobs.path = "armed";  // only emptiness matters to make_quality_auditor
  knobs.rs = 0.6;        // γ ≈ 1.67: finite (τ−2)·Rc bound, not blanket
  const std::unique_ptr<obs::QualityAuditor> auditor =
      make_quality_auditor(net, 4, knobs);
  ASSERT_NE(auditor, nullptr);
  EXPECT_DOUBLE_EQ(auditor->config().hole_diameter_bound, 2.0);

  const std::size_t n = net.dep.graph.num_vertices();
  const geom::Point center{(net.target.xmin + net.target.xmax) / 2.0,
                           (net.target.ymin + net.target.ymax) / 2.0};
  std::vector<bool> all_awake(n, true);
  std::vector<bool> cratered(n, true);
  std::size_t killed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (geom::dist(net.dep.positions[v], center) < 2.2) {
      cratered[v] = false;
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);
  auditor->end_round(all_awake);  // round 1: intact, inside the bound
  auditor->end_round(cratered);   // round 2: the crater
  auditor->finalize(cratered);

  const obs::QualitySummary& s = auditor->summary();
  EXPECT_GE(s.violations, 1u);
  EXPECT_LT(s.min_bound_margin, 0.0);
  EXPECT_GT(s.max_hole_diameter, 2.0);

  std::ostringstream stream;
  obs::write_quality_jsonl(*auditor, stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("\"type\":\"bound_violation\""), std::string::npos);
  EXPECT_NE(text.find("\"violation\":1"), std::string::npos);
  EXPECT_NE(text.find("\"excess\":"), std::string::npos);
}

TEST_F(QualityFixture, DashboardRendersByteIdenticallyAndReportFuses) {
  generate("80", "7");
  const std::string mask = (dir_ / "mask.tgc").string();
  const std::string metrics = (dir_ / "metrics.jsonl").string();
  const std::string quality = (dir_ / "quality.jsonl").string();
  ASSERT_EQ(run({"distributed", "--in", net_.c_str(), "--tau", "4", "--out",
                 mask.c_str(), "--metrics-out", metrics.c_str(),
                 "--quality-out", quality.c_str()}),
            0);

  const std::string h1 = (dir_ / "q1.html").string();
  const std::string h2 = (dir_ / "q2.html").string();
  std::string out;
  ASSERT_EQ(run({"quality-report", quality.c_str(), "--out", h1.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote quality report"), std::string::npos) << out;
  ASSERT_EQ(run({"quality-report", quality.c_str(), "--out", h2.c_str()}), 0);
  const std::string html = read_file(h1);
  EXPECT_EQ(html, read_file(h2));
  EXPECT_NE(html.find("Holes vs bound"), std::string::npos);
  EXPECT_NE(html.find("k-coverage"), std::string::npos);
  EXPECT_NE(html.find("min coverage fraction"), std::string::npos);

  // Satellite: `tgcover report` discovers the quality sink sitting next to
  // the metrics sink and fuses the same sections into the run dashboard.
  const std::string report = (dir_ / "report.html").string();
  ASSERT_EQ(run({"report", "--rounds", metrics.c_str(), "--out",
                 report.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("quality fused"), std::string::npos) << out;
  const std::string fused = read_file(report);
  EXPECT_NE(fused.find("Holes vs bound"), std::string::npos);
  EXPECT_NE(fused.find("k-coverage"), std::string::npos);
}

TEST_F(QualityFixture, LoaderNamesMissingHeaderAndUnreadableFiles) {
  const QualityLoad absent = load_quality((dir_ / "absent.jsonl").string());
  EXPECT_NE(absent.error.find("cannot read"), std::string::npos);
  const std::string headerless = (dir_ / "headerless.jsonl").string();
  {
    std::ofstream f(headerless);
    f << "{\"type\":\"quality_round\",\"round\":1}\n" << "not json\n";
  }
  const QualityLoad bad = load_quality(headerless);
  EXPECT_NE(bad.error.find("no quality_header"), std::string::npos);
}

// ------------------------------------------------------------------- fleet

class FleetQualityFixture : public QualityFixture {
 protected:
  void SetUp() override {
    QualityFixture::SetUp();
    sink_ = (dir_ / "fleet.jsonl").string();
    qsink_ = (dir_ / "fleet-quality.jsonl").string();
  }
  std::string sink_;
  std::string qsink_;
};

TEST_F(FleetQualityFixture, ArmedCellsStreamSummariesAndRecordColumns) {
  std::string out;
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--quality-out", qsink_.c_str(), "--out", sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("+quality"), std::string::npos) << out;
  const FleetSink sink = load_fleet_sink(sink_);
  ASSERT_EQ(sink.runs.size(), 2u);
  for (const obs::JsonRecord& rec : sink.runs) {
    EXPECT_TRUE(rec.has("min_coverage_fraction"));
    EXPECT_TRUE(rec.has("max_hole_diameter"));
    EXPECT_TRUE(rec.has("bound_margin"));
    EXPECT_GT(rec.number("min_coverage_fraction"), 0.0);
  }
  // The shared quality sink: one manifest header plus one run-tagged
  // quality_summary per cell.
  std::ifstream in(qsink_);
  std::string line;
  std::size_t manifests = 0, summaries = 0;
  std::set<std::uint64_t> runs_seen;
  while (std::getline(in, line)) {
    const auto rec = obs::parse_jsonl_line(line);
    ASSERT_TRUE(rec.has_value()) << line;
    if (rec->text("type") == "manifest") ++manifests;
    if (rec->text("type") == "quality_summary") {
      ++summaries;
      runs_seen.insert(rec->u64("run"));
    }
  }
  EXPECT_EQ(manifests, 1u);
  EXPECT_EQ(summaries, 2u);
  EXPECT_EQ(runs_seen, (std::set<std::uint64_t>{0, 1}));

  // Unarmed campaign: no quality columns, identical schedule digests.
  const std::string plain = (dir_ / "plain.jsonl").string();
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", plain.c_str()},
                &out),
            0)
      << out;
  const FleetSink off = load_fleet_sink(plain);
  ASSERT_EQ(off.runs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(off.runs[i].has("min_coverage_fraction"));
    EXPECT_FALSE(off.runs[i].has("bound_margin"));
    EXPECT_EQ(off.runs[i].text("schedule_digest"),
              sink.runs[i].text("schedule_digest"));
  }
}

TEST_F(FleetQualityFixture, ResumeRefusesArmedUnarmedMismatch) {
  // An armed campaign, truncated mid-flight...
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--quality-out", qsink_.c_str(), "--out", sink_.c_str()}),
            0);
  {
    std::ifstream in(sink_);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);  // manifest + 2 runs
    std::ofstream trunc(sink_, std::ios::trunc);
    trunc << lines[0] << "\n" << lines[1] << "\n";
  }
  // ...must refuse to resume without --quality-out...
  std::string out;
  EXPECT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--out", sink_.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("quality columns"), std::string::npos) << out;
  // ...and complete cleanly when the arming matches again.
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--quality-out", qsink_.c_str(), "--out",
                 sink_.c_str()},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("1 of 2 cells already ok"), std::string::npos) << out;

  // The mirror case: an unarmed sink refuses a --quality-out resume.
  const std::string plain = (dir_ / "plain.jsonl").string();
  ASSERT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--out", plain.c_str()}),
            0);
  {
    std::ifstream in(plain);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    std::ofstream trunc(plain, std::ios::trunc);
    trunc << lines[0] << "\n" << lines[1] << "\n";
  }
  EXPECT_EQ(run({"fleet", "--models", "udg", "--nodes", "40", "--degrees",
                 "10", "--taus", "3", "--seeds", "1,2", "--no-progress",
                 "--resume", "--quality-out", qsink_.c_str(), "--out",
                 plain.c_str()},
                &out),
            1);
  EXPECT_NE(out.find("no quality columns"), std::string::npos) << out;
}

}  // namespace
}  // namespace tgc::app
