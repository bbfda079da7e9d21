#include "tgcover/app/cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tgcover/app/compare.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/node_report.hpp"
#include "tgcover/app/profile_report.hpp"
#include "tgcover/app/quality_audit.hpp"
#include "tgcover/app/quality_report.hpp"
#include "tgcover/app/report.hpp"
#include "tgcover/app/rounds.hpp"
#include "tgcover/app/run_bundle.hpp"
#include "tgcover/app/scale.hpp"
#include "tgcover/app/trace_analysis.hpp"
#include "tgcover/core/confine.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/quality.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/obs/flight.hpp"
#include "tgcover/obs/jsonl.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/manifest.hpp"
#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/obs/trace_export.hpp"
#include "tgcover/trace/greenorbs.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/table.hpp"
#include "tgcover/util/thread_pool.hpp"
#include "tgcover/version.hpp"

namespace tgc::app {

namespace {

/// Rebuilds the Network wrapper (boundary ring, CB, target) for a loaded
/// deployment — the CLI always re-derives these rather than persisting them,
/// so saved files stay small and tool-agnostic.
core::Network network_of(gen::Deployment dep, double band) {
  return core::prepare_network(std::move(dep), band);
}

// ----------------------------------------------------------- shared flags

/// The repeated per-command flag parsing, hoisted so a help-text or default
/// tweak happens in exactly one place.

/// Confine size τ — the paper's single protocol parameter.
unsigned declare_tau(util::ArgParser& args) {
  return static_cast<unsigned>(args.get_int("tau", 4, "confine size"));
}

/// MIS election seed shared by the scheduling commands.
std::uint64_t declare_mis_seed(util::ArgParser& args) {
  return static_cast<std::uint64_t>(args.get_int("seed", 1, "MIS seed"));
}

/// Periphery band width — prepare_network's only knob.
double declare_band(util::ArgParser& args) {
  return args.get_double("band", 1.0, "periphery band width");
}

/// Worker-count flag with the shared [0, 1024] validation. The help text
/// stays per-command (VPT workers vs campaign workers).
unsigned declare_threads(util::ArgParser& args, std::int64_t def,
                         const char* help) {
  const std::int64_t threads_arg = args.get_int("threads", def, help);
  TGC_CHECK_MSG(threads_arg >= 0 && threads_arg <= 1024,
                "--threads must be in [0, 1024], got " << threads_arg);
  return static_cast<unsigned>(threads_arg);
}

// --------------------------------------------------------------- logging

/// Declares and applies the three diagnostics knobs every subcommand takes:
/// --log-level (runtime threshold), --log-out (sink file), --flight (ring
/// capacity for the crash-context recorder). Applied before args.finish()
/// so later TGC_CHECK failures already have the recorder armed.
void configure_logging(util::ArgParser& args) {
  const std::string level_text = args.get_string(
      "log-level", "info", "log threshold: debug|info|warn|error|off");
  const std::string log_out = args.get_string(
      "log-out", "", "append structured log lines here instead of stderr");
  const std::int64_t flight = args.get_int(
      "flight", 0,
      "retain the last N log lines per thread, dumped on check failure or "
      "crash (0 = off)");
  obs::LogLevel level = obs::LogLevel::kInfo;
  TGC_CHECK_MSG(obs::parse_log_level(level_text, level),
                args.program() << ": bad --log-level '" << level_text
                               << "' (debug|info|warn|error|off)");
  obs::set_log_level(level);
  TGC_CHECK_MSG(
      flight >= 0 &&
          static_cast<std::size_t>(flight) <= obs::kFlightMaxCapacity,
      args.program() << ": --flight must be in [0, "
                     << obs::kFlightMaxCapacity << "], got " << flight);
  obs::set_flight_capacity(static_cast<std::size_t>(flight));
  if (!log_out.empty()) {
    std::string error;
    TGC_CHECK_MSG(obs::set_log_file(log_out, &error), error);
  }
}

// -------------------------------------------------------------- manifest

/// Run timestamp for manifest sidecars: UTC ISO-8601 from the system clock,
/// or the TGC_RUN_TIMESTAMP override so CI can pin it and byte-compare
/// sidecars across reruns. Embedded stream headers never carry it.
std::string run_timestamp() {
  if (const char* env = std::getenv("TGC_RUN_TIMESTAMP")) return env;
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Splits the parser's resolved options into the manifest's semantic config
/// (`semantic` keys — these determine the run's outputs and are embedded in
/// every JSONL stream) and execution detail (everything else: threads, sink
/// paths, log options — sidecar only).
obs::RunManifest make_manifest(const std::string& command,
                               const util::ArgParser& args,
                               std::initializer_list<const char*> semantic) {
  obs::RunManifest m;
  m.command = command;
  m.timestamp = run_timestamp();
  const std::set<std::string> sem(semantic.begin(), semantic.end());
  for (auto& [key, value] : args.resolved()) {
    (sem.count(key) != 0 ? m.config : m.execution).emplace_back(key, value);
  }
  // Execution identity the sidecar should state outright: the *resolved*
  // worker count ("0" means hardware concurrency at parse time — useless to
  // a reader a year later) and the machine's concurrency, so every
  // wall-clock or profile artifact sits next to the parallelism that
  // produced it.
  for (auto& [key, value] : m.execution) {
    if (key != "threads") continue;
    char* end = nullptr;
    const unsigned long requested = std::strtoul(value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      value = std::to_string(util::ThreadPool::resolve_num_threads(
          static_cast<unsigned>(requested)));
    }
  }
  m.execution.emplace_back(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  return m;
}

/// Writes `manifest.json` into the directory holding `sink_path`, so every
/// artifact directory explains which build and config produced it.
[[nodiscard]] bool write_manifest_sidecar(const obs::RunManifest& m,
                                          const std::string& sink_path) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(sink_path).parent_path();
  const fs::path path =
      dir.empty() ? fs::path("manifest.json") : dir / "manifest.json";
  obs::JsonlWriter w(path.string());
  if (w.ok()) w.stream() << obs::manifest_sidecar_line(m) << "\n";
  if (!w.close()) {
    TGC_LOG(kError) << "manifest sidecar failed"
                    << obs::kv("error", w.error());
    return false;
  }
  return true;
}

/// Writes one sink: the embedded manifest header line (unless `header` is
/// false — the Chrome trace is plain JSON), then `body`, a checked close,
/// and the manifest.json sidecar. On failure logs "<what> sink failed" with
/// the reason and returns false; the caller turns that into a non-zero exit.
template <typename Body>
[[nodiscard]] bool write_sink(const std::string& path, const char* what,
                              const obs::RunManifest& manifest, Body&& body,
                              bool header = true) {
  obs::JsonlWriter w(path);
  if (w.ok()) {
    if (header) w.stream() << obs::manifest_header_line(manifest) << "\n";
    body(w.stream());
  }
  if (!w.close()) {
    TGC_LOG(kError) << what << " sink failed" << obs::kv("error", w.error());
    return false;
  }
  return write_manifest_sidecar(manifest, path);
}

/// Writes a rendered HTML dashboard. On failure logs it, prints the error
/// line and returns false.
[[nodiscard]] bool write_html(const std::string& path, const std::string& html,
                              std::ostream& out) {
  std::ofstream f(path, std::ios::binary);
  f << html;
  f.flush();
  if (!f.good()) {
    TGC_LOG(kError) << "report sink failed" << obs::kv("path", path);
    out << "error: cannot write '" << path << "'\n";
    return false;
  }
  return true;
}

// ------------------------------------------------------------- telemetry

/// The telemetry knobs shared by the scheduling commands. Declaring them
/// turns the runtime counters on for the duration of the command.
struct MetricsOptions {
  std::string out_path;   ///< full JSONL sink (empty = none)
  std::string cost_path;  ///< logical-cost-only JSONL sink (empty = none)
  bool table = false;     ///< print the per-round table to stderr

  bool requested() const {
    return table || !out_path.empty() || !cost_path.empty();
  }
};

MetricsOptions declare_metrics_options(util::ArgParser& args) {
  MetricsOptions m;
  m.out_path = args.get_string("metrics-out", "",
                               "write per-round telemetry JSONL here");
  m.cost_path = args.get_string(
      "cost-out", "",
      "write only the machine-independent logical-cost JSONL here "
      "(byte-identical across hosts, thread counts, and log levels)");
  m.table = args.get_flag("metrics", "print per-round telemetry to stderr");
  if (m.requested()) obs::set_enabled(true);
  return m;
}

/// Writes the JSONL sink (embedded manifest line first, sidecar after) and/
/// or the stderr table after a metered command. Returns false (after
/// logging the reason) when the sink failed — the caller turns that into a
/// non-zero exit code.
[[nodiscard]] bool emit_metrics(const MetricsOptions& opts,
                                const obs::RoundCollector& c,
                                const obs::RunManifest& manifest,
                                std::ostream& out) {
  if (!opts.out_path.empty()) {
    if (!write_sink(opts.out_path, "metrics", manifest,
                    [&](std::ostream& s) { c.write_jsonl(s); })) {
      return false;
    }
    out << "wrote " << c.events().size() << " round records + summary to "
        << opts.out_path << "\n";
  }
  if (!opts.cost_path.empty()) {
    // The cost stream embeds only the semantic manifest header (cfg_ keys),
    // so two runs of the same build and config produce byte-identical files
    // no matter the thread count or log level.
    if (!write_sink(opts.cost_path, "cost", manifest,
                    [&](std::ostream& s) { c.write_cost_jsonl(s); })) {
      return false;
    }
    out << "wrote logical-cost JSONL to " << opts.cost_path << "\n";
  }
  if (opts.table) {
    std::vector<RoundRow> rows;
    rows.reserve(c.events().size());
    for (const obs::RoundEvent& ev : c.events()) {
      rows.push_back(row_from_event(ev));
    }
    std::cerr << render_round_table(rows) << "wall time "
              << util::Table::num(static_cast<double>(c.wall_ns()) / 1e6, 1)
              << " ms";
    if (!obs::kCompiledIn) {
      std::cerr << " (span timers compiled out: ms columns are zero; "
                   "logical counters stay live)";
    }
    std::cerr << "\n";
  }
  return true;
}

// ------------------------------------------------------------- profiling

/// Declares --profile-out on the scheduling commands. A non-empty path arms
/// the execution profiler for the run (per-worker timelines, pool/memory
/// telemetry — DESIGN.md §13).
std::string declare_profile_option(util::ArgParser& args) {
  return args.get_string(
      "profile-out", "",
      "write the parallel-execution profile JSONL here (per-worker task/"
      "idle/barrier timelines, phase totals, memory telemetry; render with "
      "`tgcover profile-report`)");
}

/// Opens the profiler session sized to the command's resolved worker count.
/// No-op when --profile-out was not given, so unprofiled runs stay on the
/// one-relaxed-load path.
void begin_profile(const std::string& path, unsigned threads) {
  if (path.empty()) return;
  obs::profile_begin(util::ThreadPool::resolve_num_threads(threads));
}

/// Drains the profiler and writes the JSONL sink (embedded manifest line
/// first, sidecar after). Call immediately after the profiled run returns,
/// before other sinks, so their I/O never pollutes the wall clock.
[[nodiscard]] bool emit_profile(const std::string& path,
                                const obs::RunManifest& manifest,
                                std::ostream& out) {
  if (path.empty()) return true;
  const obs::ProfileData data = obs::profile_end();
  std::size_t events = 0;
  for (const obs::WorkerProfile& w : data.workers) events += w.events.size();
  if (!write_sink(path, "profile", manifest, [&](std::ostream& s) {
        obs::write_profile_jsonl(data, s);
      })) {
    return false;
  }
  out << "wrote execution profile (" << data.workers.size() << " workers, "
      << events << " events) to " << path << "\n";
  return true;
}

// --------------------------------------------------------- node telemetry

/// --node-telemetry-out plus the radio energy model knobs (DESIGN.md §14).
/// The energy costs deliberately stay OUT of the manifest's semantic keys:
/// they shape only the telemetry stream itself (recorded in its header
/// line), so schedules, cost streams, and traces remain byte-identical
/// whether telemetry is armed or not.
struct NodeTelemetryOptions {
  std::string path;
  obs::EnergyModel energy;
};

NodeTelemetryOptions declare_node_telemetry_options(util::ArgParser& args) {
  NodeTelemetryOptions opts;
  opts.path = args.get_string(
      "node-telemetry-out", "",
      "write per-node network/energy telemetry JSONL here (per-round node "
      "records, link matrix, per-node summaries, talkers, Gini; render with "
      "`tgcover node-report`)");
  opts.energy.tx_cost = args.get_double(
      "energy-tx", opts.energy.tx_cost,
      "energy charged per message transmitted (incl. lost/dropped)");
  opts.energy.rx_cost = args.get_double(
      "energy-rx", opts.energy.rx_cost, "energy charged per message received");
  opts.energy.idle_cost = args.get_double(
      "energy-idle", opts.energy.idle_cost,
      "energy charged per round a node stays active");
  return opts;
}

/// The collector, or nullptr when --node-telemetry-out was not given, so an
/// unarmed run pays only the engines' thread_local null checks.
std::unique_ptr<obs::NodeTelemetry> make_node_telemetry(
    const NodeTelemetryOptions& opts, std::size_t num_nodes) {
  if (opts.path.empty()) return nullptr;
  return std::make_unique<obs::NodeTelemetry>(num_nodes, opts.energy);
}

/// Finalizes and writes the telemetry sink. `positions` may be empty (no
/// spatial overlay in the report then).
[[nodiscard]] bool emit_node_telemetry(
    const NodeTelemetryOptions& opts, obs::NodeTelemetry* telemetry,
    std::span<const obs::NodePosition> positions,
    const obs::RunManifest& manifest, std::ostream& out) {
  if (telemetry == nullptr) return true;
  telemetry->finalize();
  if (!write_sink(opts.path, "node-telemetry", manifest, [&](std::ostream& s) {
        obs::write_node_telemetry_jsonl(*telemetry, positions, s);
      })) {
    return false;
  }
  const obs::NodeTelemetrySummary& s = telemetry->summary();
  out << "wrote node telemetry (" << telemetry->num_nodes() << " nodes, "
      << s.rounds << " rounds, gini "
      << util::Table::num(s.traffic_gini, 3) << ", max node energy "
      << util::Table::num(s.max_node_energy, 2) << " at node "
      << s.max_energy_node << ") to " << opts.path << "\n";
  return true;
}

// ------------------------------------------------------- quality auditing

/// --quality-out plus the geometric probe knobs (DESIGN.md §15). Like the
/// energy model, these deliberately stay OUT of the manifest's semantic
/// keys: they shape only the quality stream itself (recorded in its header
/// line), so schedules, cost streams, and traces remain byte-identical
/// whether the auditor is armed or not.
QualityKnobs declare_quality_options(util::ArgParser& args) {
  QualityKnobs knobs;
  knobs.path = args.get_string(
      "quality-out", "",
      "write per-round coverage-quality JSONL here (coverage fraction, "
      "k-coverage histogram, hole diameters vs the Proposition 1 bound, "
      "awake-set connectivity, certifiable tau; render with `tgcover "
      "quality-report`)");
  knobs.rs = args.get_double(
      "rs", 1.0, "sensing radius for the coverage rasterizer (gamma = Rc/rs)");
  const std::int64_t every = args.get_int(
      "quality-every", 1, "sample the quality probe every Nth round");
  TGC_CHECK_MSG(every >= 1, "--quality-every must be >= 1, got " << every);
  knobs.every = static_cast<std::uint64_t>(every);
  knobs.cell = args.get_double(
      "quality-cell", 0.05, "coverage rasterizer cell side");
  return knobs;
}

/// Samples the final awake set and writes the quality sink.
[[nodiscard]] bool emit_quality(const QualityKnobs& knobs,
                                obs::QualityAuditor* auditor,
                                const std::vector<bool>& active,
                                const obs::RunManifest& manifest,
                                std::ostream& out) {
  if (auditor == nullptr) return true;
  auditor->finalize(active);
  if (!write_sink(knobs.path, "quality", manifest, [&](std::ostream& s) {
        obs::write_quality_jsonl(*auditor, s);
      })) {
    return false;
  }
  const obs::QualitySummary& s = auditor->summary();
  out << "wrote quality audit (" << s.rounds_sampled
      << " sampled rounds, min coverage "
      << util::Table::num(s.min_coverage_fraction, 4) << ", worst hole "
      << util::Table::num(s.max_hole_diameter, 3) << ", " << s.violations
      << " bound violation(s)) to " << knobs.path << "\n";
  return true;
}

/// Runs `run` with `observers` bound to this (the driving) thread; they are
/// unbound again before the caller writes their sinks.
template <typename Run>
auto observed(const obs::RoundObservers& observers, Run&& run) {
  const obs::ObserverScope scope(observers);
  return run();
}

/// Positions of a loaded deployment in exporter form.
std::vector<obs::NodePosition> node_positions_of(const gen::Deployment& dep) {
  std::vector<obs::NodePosition> positions;
  positions.reserve(dep.positions.size());
  for (const geom::Point& p : dep.positions) {
    positions.push_back(obs::NodePosition{p.x, p.y});
  }
  return positions;
}

int cmd_generate(util::ArgParser& args, std::ostream& out) {
  const std::string type =
      args.get_string("type", "udg", "workload type: udg | quasi | strip");
  const auto n =
      static_cast<std::size_t>(args.get_int("nodes", 400, "node count"));
  const double degree = args.get_double("degree", 25.0, "target avg degree");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "random seed"));
  const std::string path =
      args.get_string("out", "network.tgc", "output network file");
  const double alpha =
      args.get_double("alpha", 0.7, "quasi-UDG certain-link fraction");
  const double p_link =
      args.get_double("p-link", 0.6, "quasi-UDG band link probability");
  const double strip_aspect =
      args.get_double("aspect", 4.0, "strip length/width ratio");
  configure_logging(args);
  args.finish();

  if (type != "udg" && type != "quasi" && type != "strip") {
    out << "unknown --type '" << type << "'\n";
    return 2;
  }
  GenSpec spec;
  spec.model = type;
  spec.nodes = n;
  spec.degree = degree;
  spec.seed = seed;
  spec.alpha = alpha;
  spec.p_link = p_link;
  spec.aspect = strip_aspect;
  const gen::Deployment dep = generate_deployment(spec);
  io::save_deployment(dep, path);
  out << "wrote " << path << ": " << dep.graph.num_vertices() << " nodes, "
      << dep.graph.num_edges() << " links, avg degree "
      << dep.graph.average_degree() << "\n";
  return 0;
}

int cmd_schedule(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string out_path =
      args.get_string("out", "schedule.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const std::uint64_t seed = declare_mis_seed(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const MetricsOptions metrics = declare_metrics_options(args);
  const std::string profile_path = declare_profile_option(args);
  const QualityKnobs q_opts = declare_quality_options(args);
  configure_logging(args);
  args.finish();
  const obs::RunManifest manifest =
      make_manifest("schedule", args, {"in", "tau", "seed", "band"});

  const core::Network net = network_of(io::load_deployment(in_path), band);
  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  config.num_threads = threads;
  obs::RoundCollector collector;
  begin_profile(profile_path, threads);
  const std::unique_ptr<obs::QualityAuditor> quality =
      make_quality_auditor(net, tau, q_opts);
  const core::ScheduleSummary s =
      observed({metrics.requested() ? &collector : nullptr, nullptr,
                quality.get()},
               [&] { return core::run_dcc(net, config); });
  if (!emit_profile(profile_path, manifest, out)) return 1;
  if (!emit_quality(q_opts, quality.get(), s.result.active, manifest, out)) {
    return 1;
  }
  collector.finalize(s.result.survivors);
  if (!emit_metrics(metrics, collector, manifest, out)) return 1;
  io::save_mask(s.result.active, out_path);
  out << "scheduled tau=" << tau << ": " << s.result.survivors << " of "
      << net.dep.graph.num_vertices() << " nodes awake ("
      << s.result.rounds << " rounds); wrote " << out_path << " (digest "
      << util::hex64(io::mask_digest(s.result.active)) << ")\n";
  return 0;
}

int cmd_verify(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const unsigned tau = declare_tau(args);
  const double band = declare_band(args);
  const std::string cert_path = args.get_string(
      "certificate", "", "write the explicit cycle partition here");
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  TGC_CHECK_MSG(active.size() == net.dep.graph.num_vertices(),
                "schedule size does not match the network");
  const bool ok = core::criterion_holds(net.dep.graph, active, net.cb, tau);
  out << "cycle-partition criterion at tau=" << tau << ": "
      << (ok ? "HOLDS — tau-confine coverage certified"
             : "does not hold") << "\n";

  if (ok && !cert_path.empty()) {
    // The human-checkable witness: cycles of length ≤ τ whose GF(2) sum is
    // the boundary cycle (Definition 2).
    const auto parts = core::find_partition(net.dep.graph, active, net.cb, tau);
    TGC_CHECK(parts.has_value());
    std::ofstream cert(cert_path);
    TGC_CHECK_MSG(cert.good(), "cannot open '" << cert_path << "'");
    cert << "# cycle partition certificate: boundary = XOR of " << parts->size()
         << " cycles, each of length <= " << tau << "\n";
    for (const cycle::Cycle& c : *parts) {
      cert << "cycle";
      for (const graph::VertexId v :
           cycle::cycle_vertices(net.dep.graph, c.edges())) {
        cert << ' ' << v;
      }
      cert << "\n";
    }
    out << "wrote certificate with " << parts->size() << " cycles to "
        << cert_path << "\n";
  }
  return ok ? 0 : 1;
}

int cmd_quality(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const auto cap =
      static_cast<unsigned>(args.get_int("tau-cap", 16, "certificate search cap"));
  const double band = declare_band(args);
  const double gamma =
      args.get_double("gamma", 0.0, "sensing ratio for the Dmax bound (0 = skip)");
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  const core::QualityReport q =
      core::assess_quality(net.dep.graph, active, net.cb, cap);
  out << "cycle space dimension: " << q.cycle_space_dim << "\n";
  out << "void sizes (irreducible cycles): min " << q.min_void << ", max "
      << q.max_void << "\n";
  if (q.certifiable_tau == 0) {
    out << "no confine-coverage certificate up to tau=" << cap << "\n";
  } else {
    out << "smallest certifiable confine size: tau=" << q.certifiable_tau
        << "\n";
    if (gamma > 0.0) {
      out << "worst-case hole diameter bound at gamma=" << gamma << ": "
          << core::paper_hole_diameter_bound(q.certifiable_tau, gamma, 1.0)
          << " * Rc (Proposition 1)\n";
    }
  }
  return 0;
}

int cmd_render(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "", "awake-set mask (empty = all awake)");
  const std::string out_path =
      args.get_string("out", "network.svg", "output SVG file");
  const double band = declare_band(args);
  configure_logging(args);
  args.finish();

  const core::Network net = network_of(io::load_deployment(in_path), band);
  std::vector<bool> active(net.dep.graph.num_vertices(), true);
  if (!schedule_path.empty()) active = io::load_mask(schedule_path);
  std::vector<io::NodeRole> roles(net.dep.graph.num_vertices());
  for (graph::VertexId v = 0; v < roles.size(); ++v) {
    roles[v] = net.boundary[v] ? io::NodeRole::kBoundary
               : active[v]     ? io::NodeRole::kActive
                               : io::NodeRole::kDeleted;
  }
  io::render_network_svg(net.dep.graph, net.dep.positions, roles, net.cb,
                         out_path);
  out << "wrote " << out_path << "\n";
  return 0;
}

int cmd_trace(util::ArgParser& args, std::ostream& out) {
  trace::GreenOrbsOptions options;
  options.nodes = static_cast<std::size_t>(
      args.get_int("nodes", 296, "sensors in the forest strip"));
  options.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2009, "workload seed"));
  options.trace.epochs = static_cast<std::size_t>(
      args.get_int("epochs", 288, "packet epochs accumulated"));
  const std::string path =
      args.get_string("out", "trace.tgc", "output network file");
  configure_logging(args);
  args.finish();

  const trace::GreenOrbsNetwork net = trace::build_greenorbs_network(options);
  // Persist the thresholded trace graph with the ground-truth positions.
  gen::Deployment dep = net.dep;
  dep.graph = net.graph;
  io::save_deployment(dep, path);
  out << "trace pipeline: " << net.trace.packets << " packets, threshold "
      << net.threshold_dbm << " dBm keeps " << net.graph.num_edges()
      << " links (" << net.boundary_count() << "-node boundary ring); wrote "
      << path << "\n";
  return 0;
}

int cmd_distributed(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string out_path =
      args.get_string("out", "schedule.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const std::uint64_t seed = declare_mis_seed(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const std::string trace_out = args.get_string(
      "trace-out", "", "write Chrome trace-event JSON here (open in Perfetto)");
  const std::string trace_jsonl = args.get_string(
      "trace-jsonl", "", "write the JSONL event trace here (trace-analyze)");
  const std::string trace_clock = args.get_string(
      "trace-clock", "wall", "Chrome trace timeline: wall | sim");
  const bool async = args.get_flag(
      "async", "run over the asynchronous lossy-link engine (α-synchronized)");
  const double loss =
      args.get_double("loss", 0.0, "per-message loss probability (async)");
  const double min_delay =
      args.get_double("min-delay", 0.5, "minimum link delay (async)");
  const double max_delay =
      args.get_double("max-delay", 1.5, "maximum link delay (async)");
  const auto net_seed = static_cast<std::uint64_t>(
      args.get_int("net-seed", 1, "link delay / loss seed (async)"));
  const double retransmit = args.get_double(
      "retransmit", 4.0, "retransmission interval for unacked messages");
  const MetricsOptions metrics = declare_metrics_options(args);
  const std::string profile_path = declare_profile_option(args);
  const NodeTelemetryOptions nt_opts = declare_node_telemetry_options(args);
  const QualityKnobs q_opts = declare_quality_options(args);
  configure_logging(args);
  args.finish();
  const obs::RunManifest manifest = make_manifest(
      "distributed", args,
      {"in", "tau", "seed", "band", "async", "loss", "min-delay", "max-delay",
       "net-seed", "retransmit"});

  TGC_CHECK_MSG(trace_clock == "wall" || trace_clock == "sim",
                "--trace-clock must be 'wall' or 'sim'");
  TGC_CHECK_MSG(async || loss == 0.0, "--loss requires --async");
  const bool tracing = !trace_out.empty() || !trace_jsonl.empty();
  if (tracing && !obs::kCompiledIn) {
    TGC_LOG(kWarn)
        << "tracing is compiled out (TGC_OBS=OFF); traces will have no events";
  }

  const core::Network net = network_of(io::load_deployment(in_path), band);
  core::DccConfig config;
  config.tau = tau;
  config.seed = seed;
  config.num_threads = threads;
  obs::RoundCollector collector;

  if (tracing) obs::trace_begin();
  begin_profile(profile_path, threads);
  const std::unique_ptr<obs::NodeTelemetry> telemetry =
      make_node_telemetry(nt_opts, net.dep.graph.num_vertices());
  const std::unique_ptr<obs::QualityAuditor> quality =
      make_quality_auditor(net, tau, q_opts);
  const core::DccDistributedResult result = observed(
      {metrics.requested() ? &collector : nullptr, telemetry.get(),
       quality.get()},
      [&] {
        if (!async) {
          return core::dcc_schedule_distributed(net.dep.graph, net.internal,
                                                config);
        }
        core::DccAsyncOptions options;
        options.net.min_delay = min_delay;
        options.net.max_delay = max_delay;
        options.net.loss_probability = loss;
        options.net.seed = net_seed;
        options.retransmit_interval = retransmit;
        return core::dcc_schedule_distributed_async(
            net.dep.graph, net.internal, config, options);
      });
  if (!emit_profile(profile_path, manifest, out)) return 1;
  if (!emit_node_telemetry(nt_opts, telemetry.get(),
                           node_positions_of(net.dep), manifest, out)) {
    return 1;
  }
  if (!emit_quality(q_opts, quality.get(), result.schedule.active, manifest,
                    out)) {
    return 1;
  }
  const std::vector<obs::TraceEvent> events =
      tracing ? obs::trace_end() : std::vector<obs::TraceEvent>{};

  collector.finalize(result.schedule.survivors);
  if (!emit_metrics(metrics, collector, manifest, out)) return 1;
  if (!trace_out.empty()) {
    const obs::TraceClock clock =
        trace_clock == "sim" ? obs::TraceClock::kSim : obs::TraceClock::kWall;
    if (!write_sink(
            trace_out, "trace", manifest,
            [&](std::ostream& s) { obs::write_chrome_trace(events, s, clock); },
            /*header=*/false)) {
      return 1;
    }
    out << "wrote Chrome trace (" << events.size() << " events) to "
        << trace_out << "\n";
  }
  if (!trace_jsonl.empty()) {
    if (!write_sink(trace_jsonl, "trace", manifest, [&](std::ostream& s) {
          obs::write_trace_jsonl(events, s);
        })) {
      return 1;
    }
    out << "wrote JSONL trace (" << events.size() << " events) to "
        << trace_jsonl << "\n";
  }

  io::save_mask(result.schedule.active, out_path);
  out << "distributed DCC (tau=" << tau
      << "): " << result.schedule.survivors << " nodes awake after "
      << result.schedule.rounds << " deletion rounds; radio cost "
      << result.traffic.messages << " messages / "
      << result.traffic.payload_bytes() / 1024 << " KiB over "
      << result.traffic.rounds << " engine rounds; wrote " << out_path
      << " (digest " << util::hex64(io::mask_digest(result.schedule.active))
      << ")\n";
  if (async) {
    out << "async substrate: sim duration " << result.sim_duration << ", "
        << result.messages_lost << " transmissions lost, "
        << result.retransmissions << " retransmissions\n";
  }
  return 0;
}

int cmd_repair(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "network.tgc", "input network file");
  const std::string schedule_path =
      args.get_string("schedule", "schedule.tgc", "current awake-set mask");
  const std::string failed_path =
      args.get_string("failed", "failed.tgc", "mask of crashed nodes");
  const std::string out_path =
      args.get_string("out", "repaired.tgc", "output awake-set mask");
  const unsigned tau = declare_tau(args);
  const double band = declare_band(args);
  const unsigned threads = declare_threads(
      args, 1, "VPT worker threads (0 = hardware concurrency)");
  const MetricsOptions metrics = declare_metrics_options(args);
  const std::string profile_path = declare_profile_option(args);
  const NodeTelemetryOptions nt_opts = declare_node_telemetry_options(args);
  const QualityKnobs q_opts = declare_quality_options(args);
  configure_logging(args);
  args.finish();
  const obs::RunManifest manifest = make_manifest(
      "repair", args, {"in", "schedule", "failed", "tau", "band"});

  const core::Network net = network_of(io::load_deployment(in_path), band);
  const auto active = io::load_mask(schedule_path);
  const auto failed = io::load_mask(failed_path);
  TGC_CHECK_MSG(active.size() == net.dep.graph.num_vertices() &&
                    failed.size() == net.dep.graph.num_vertices(),
                "mask sizes do not match the network");
  core::DccConfig config;
  config.tau = tau;
  config.num_threads = threads;
  obs::RoundCollector collector;
  begin_profile(profile_path, threads);
  const std::unique_ptr<obs::NodeTelemetry> telemetry =
      make_node_telemetry(nt_opts, net.dep.graph.num_vertices());
  const std::unique_ptr<obs::QualityAuditor> quality =
      make_quality_auditor(net, tau, q_opts);
  const core::RepairResult result = observed(
      {metrics.requested() ? &collector : nullptr, telemetry.get(),
       quality.get()},
      [&] {
        return core::dcc_repair(net.dep.graph, net.internal, active, failed,
                                net.cb, config);
      });
  if (!emit_profile(profile_path, manifest, out)) return 1;
  if (!emit_node_telemetry(nt_opts, telemetry.get(),
                           node_positions_of(net.dep), manifest, out)) {
    return 1;
  }
  if (!emit_quality(q_opts, quality.get(), result.active, manifest, out)) {
    return 1;
  }
  collector.finalize(static_cast<std::uint64_t>(
      std::count(result.active.begin(), result.active.end(), true)));
  if (!emit_metrics(metrics, collector, manifest, out)) return 1;
  io::save_mask(result.active, out_path);
  out << "repair: woke " << result.woken << " sleepers (radius "
      << result.final_radius << "), re-slept " << result.redeleted
      << "; certificate "
      << (result.criterion_restored ? "RESTORED" : "not restorable")
      << "; wrote " << out_path << "\n";
  return result.criterion_restored ? 0 : 1;
}

int cmd_stats(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "metrics.jsonl", "telemetry JSONL file");
  const bool csv = args.get_flag("csv", "emit the round table as CSV");
  configure_logging(args);
  args.finish();

  const RoundLog log = load_round_log(in_path);
  if (!log.error.empty()) {
    out << "error: " << log.error << "\n";
    return 1;
  }
  for (const std::string& note : log.notes) TGC_LOG(kWarn) << note;
  const std::vector<RoundRow>& rows = log.rows;
  if (rows.empty() && !log.summary.has_value() && log.cost_totals.empty()) {
    // Covers both an empty file and a manifest-only one: a named error, not
    // a silent empty table.
    out << "error: no telemetry records in " << in_path
        << (log.manifest.has_value() ? " (manifest only)" : "")
        << " — produce it with --metrics-out or --cost-out\n";
    return 1;
  }

  if (csv) {
    // Re-render through Table for the CSV path too, so columns stay in sync.
    util::Table table({"round", "active", "cand", "del", "vpt",
                       "verdict_cache_hits", "dirty_nodes", "bfs", "horton",
                       "gf2", "msgs", "lost", "rexmit", "ball_view_bytes",
                       "cost", "ns_verdicts", "ns_mis", "ns_deletion"});
    for (const RoundRow& r : rows) {
      table.add_row({std::to_string(r.round), std::to_string(r.active),
                     std::to_string(r.candidates), std::to_string(r.deleted),
                     std::to_string(r.vpt_tests),
                     std::to_string(r.cache_hits),
                     std::to_string(r.dirty_nodes),
                     std::to_string(r.bfs_expansions),
                     std::to_string(r.horton_candidates),
                     std::to_string(r.gf2_pivots), std::to_string(r.messages),
                     std::to_string(r.messages_lost),
                     std::to_string(r.retransmissions),
                     std::to_string(r.ball_view_bytes),
                     std::to_string(r.logical_cost),
                     std::to_string(r.ns_verdicts), std::to_string(r.ns_mis),
                     std::to_string(r.ns_deletion)});
    }
    out << table.to_csv();
    return log.skipped > 0 ? 1 : 0;
  }

  if (!rows.empty()) out << render_round_table(rows);
  if (!log.cost_totals.empty()) {
    out << render_cost_table(log.cost_totals);
  }
  if (log.summary.has_value()) {
    std::uint64_t cost = log.summary->u64("logical_cost");
    if (cost == 0) {
      obs::CostVec v;
      for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
        v.units[i] = log.summary->u64(
            std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
      }
      cost = obs::logical_cost(v);
    }
    out << "summary: " << log.summary->u64("rounds") << " rounds, "
        << log.summary->u64("survivors") << " survivors, wall "
        << util::Table::num(log.summary->number("wall_ns") / 1e6, 1) << " ms, "
        << log.summary->u64("vpt_tests") << " VPT tests, "
        << log.summary->u64("messages") << " messages, logical cost " << cost;
    if (log.summary->u64("obs_compiled") == 0) {
      out << " (span timers were compiled out: ms columns are zero)";
    }
    out << "\n";
  }
  return log.skipped > 0 ? 1 : 0;
}

int cmd_trace_analyze(util::ArgParser& args, std::ostream& out) {
  const std::string in_path = args.get_string(
      "in", "trace.jsonl", "JSONL trace (from distributed --trace-jsonl)");
  const bool check = args.get_flag(
      "check", "validate trace invariants; non-zero exit on violation");
  const auto top = static_cast<std::size_t>(
      args.get_int("top", 5, "busiest nodes to list"));
  configure_logging(args);
  args.finish();

  const TraceStats stats = analyze_trace_file(in_path);
  for (const std::string& v : stats.violations) {
    out << "violation: " << v << "\n";
  }

  out << "trace: " << stats.events << " events";
  if (stats.header.has_value() && stats.header->u64("obs_compiled") == 0) {
    out << " (tracing was compiled out)";
  }
  out << "\n";
  if (stats.events > 0) {
    out << "scheduler: " << stats.deletion_rounds << " deletion rounds, "
        << stats.fixpoint_probes << " fixpoint probe(s), "
        << stats.engine_rounds << " engine rounds\n";
    out << "messages: " << stats.sends << " sent, " << stats.delivers
        << " delivered, " << stats.drops << " dropped, " << stats.losses
        << " lost, " << stats.retransmits << " retransmissions\n";
    out << "causal critical path: " << stats.critical_path
        << " message hops to convergence across " << stats.deletion_rounds
        << " deletion rounds\n";
    if (stats.latency_samples > 0) {
      out << "delivery latency: min " << stats.latency_min << ", mean "
          << stats.latency_sum / static_cast<double>(stats.latency_samples)
          << ", max " << stats.latency_max << " (" << stats.latency_samples
          << " samples)\n";
    }
    if (stats.losses > 0 || stats.retransmits > 0) {
      out << "loss recovery: " << stats.losses << " transmissions ("
          << stats.lost_words << " words) lost on the air, recovered by "
          << stats.retransmits << " retransmissions\n";
    }
    if (stats.has_traffic) {
      out << "per-node sent: min " << stats.sent_min << ", median "
          << stats.sent_median << ", max " << stats.sent_max
          << "; received: min " << stats.recv_min << ", median "
          << stats.recv_median << ", max " << stats.recv_max << "\n";
    }
    if (!stats.busiest.empty()) {
      out << "busiest nodes:";
      for (std::size_t i = 0; i < std::min(top, stats.busiest.size()); ++i) {
        out << " " << stats.busiest[i].second << " (" << stats.busiest[i].first
            << ")";
      }
      out << "\n";
    }
  }

  if (!stats.violations.empty()) {
    out << stats.violations.size() << " invariant violation(s)\n";
    return check ? 1 : 0;
  }
  if (check) out << "trace OK\n";
  return 0;
}

int cmd_report(util::ArgParser& args, std::ostream& out) {
  const std::string rounds_path = args.get_string(
      "rounds", "metrics.jsonl",
      "round telemetry JSONL (from --metrics-out) or a run directory");
  const std::string trace_path = args.get_string(
      "trace", "", "JSONL trace (from --trace-jsonl); optional");
  const std::string out_path =
      args.get_string("out", "report.html", "output HTML dashboard");
  const std::string title =
      args.get_string("title", "tgcover run report", "report headline");
  configure_logging(args);
  args.finish();

  RunBundle bundle = load_run_bundle(rounds_path);
  if (!bundle.error.empty()) {
    out << "error: " << bundle.error << "\n";
    return 1;
  }
  RoundLog& log = bundle.log;
  for (const std::string& note : log.notes) TGC_LOG(kWarn) << note;
  if (log.rows.empty() && !log.summary.has_value() &&
      log.cost_totals.empty()) {
    out << "error: no round records in " << bundle.rounds_path
        << " — produce one with --metrics-out\n";
    return 1;
  }

  ReportInputs inputs;
  inputs.title = title;
  inputs.manifest = log.manifest;
  inputs.rounds = std::move(log.rows);
  inputs.costs = std::move(log.costs);
  inputs.cost_totals = std::move(log.cost_totals);
  inputs.summary = log.summary;

  TraceStats trace;
  if (!trace_path.empty()) {
    trace = analyze_trace_file(trace_path);
    if (!trace.violations.empty()) {
      for (const std::string& v : trace.violations) {
        out << "violation: " << v << "\n";
      }
      out << "error: refusing to fuse an inconsistent trace ("
          << trace.violations.size() << " violation(s) in " << trace_path
          << ")\n";
      return 1;
    }
    if (trace.manifest.has_value() && inputs.manifest.has_value() &&
        trace.manifest->fields() != inputs.manifest->fields()) {
      std::string key = "?";
      for (const auto& [k, v] : inputs.manifest->fields()) {
        const auto it = trace.manifest->fields().find(k);
        if (it == trace.manifest->fields().end() || it->second != v) {
          key = k;
          break;
        }
      }
      out << "error: " << rounds_path << " and " << trace_path
          << " come from different runs (manifests disagree on '" << key
          << "'); refusing to fuse them\n";
      return 1;
    }
    if (!inputs.manifest.has_value()) inputs.manifest = trace.manifest;
    inputs.trace = &trace;
  }

  // A quality sink sitting next to the metrics sink joins the dashboard as
  // its own section — same convention the cost sections follow.
  QualityLoad quality;
  {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(bundle.rounds_path).parent_path();
    const fs::path candidate =
        dir.empty() ? fs::path("quality.jsonl") : dir / "quality.jsonl";
    if (fs::exists(candidate)) {
      quality = load_quality(candidate.string());
      if (quality.error.empty()) {
        inputs.quality = &quality;
      } else {
        TGC_LOG(kWarn) << "quality sink unusable"
                       << obs::kv("error", quality.error);
      }
    }
  }

  const std::string html = render_report_html(inputs);
  if (!write_html(out_path, html, out)) return 1;
  out << "wrote report (" << inputs.rounds.size() << " rounds"
      << (inputs.trace != nullptr ? ", trace fused" : "")
      << (inputs.quality != nullptr ? ", quality fused" : "") << ") to "
      << out_path << "\n";
  return 0;
}

int cmd_fleet(util::ArgParser& args, std::ostream& out) {
  FleetOptions opts;
  const std::string spec_path = args.get_string(
      "spec", "",
      "flat JSON grid spec file ({\"nodes\":\"200,400\",...}); explicit "
      "flags override its keys");
  // Axis and scalar flags are declared as strings so "not given" is
  // representable — only explicitly-set ones override the spec file.
  const std::pair<const char*, const char*> keys[] = {
      {"models", "comma list of deployment models (udg|quasi|strip)"},
      {"nodes", "comma list of node counts"},
      {"degrees", "comma list of target average degrees"},
      {"taus", "comma list of confine sizes"},
      {"losses",
       "comma list of per-message loss probabilities (0 = oracle scheduler, "
       ">0 = asynchronous lossy engine)"},
      {"seeds", "comma list of seeds (deployment, MIS, and network)"},
      {"band", "periphery band width"},
      {"alpha", "quasi-UDG certain-link fraction"},
      {"p-link", "quasi-UDG band link probability"},
      {"aspect", "strip length/width ratio"},
      {"min-delay", "minimum link delay (lossy cells)"},
      {"max-delay", "maximum link delay (lossy cells)"},
      {"retransmit", "retransmission interval (lossy cells)"},
  };
  std::vector<std::pair<std::string, std::string>> overrides;
  for (const auto& [key, help] : keys) {
    overrides.emplace_back(key, args.get_string(key, "", help));
  }
  opts.sink_path =
      args.get_string("out", "fleet.jsonl", "streaming JSONL summary sink");
  opts.threads = declare_threads(
      args, 0, "campaign workers (0 = hardware concurrency)");
  const bool no_progress = args.get_flag(
      "no-progress", "suppress the live done/failed/ETA line on stderr");
  // A piped stderr (CI log, `2>file`) gets one full line per update instead
  // of \r rewrites, which render as an unreadable mega-line off a terminal.
  opts.progress = no_progress ? FleetProgress::kOff
                  : isatty(fileno(stderr)) != 0 ? FleetProgress::kTty
                                                : FleetProgress::kPlain;
  opts.resume = args.get_flag(
      "resume",
      "skip grid cells already recorded ok in the sink and append only the "
      "missing or failed ones (refuses a sink from a different grid)");
  const std::string profile_path = declare_profile_option(args);
  const NodeTelemetryOptions nt_opts = declare_node_telemetry_options(args);
  opts.node_telemetry_out = nt_opts.path;
  opts.energy = nt_opts.energy;
  opts.quality = declare_quality_options(args);
  configure_logging(args);
  args.finish();

  std::string error;
  if (!spec_path.empty()) {
    TGC_CHECK_MSG(load_fleet_spec(spec_path, opts.spec, error), error);
  }
  for (const auto& [key, value] : overrides) {
    if (value.empty()) continue;
    TGC_CHECK_MSG(apply_fleet_key(opts.spec, key, value, error), error);
  }

  // The manifest's semantic config is the *resolved* grid — when a spec file
  // and flags mix, the embedded header still states exactly what ran.
  obs::RunManifest manifest = make_manifest("fleet", args, {});
  for (auto& kv : fleet_spec_config(opts.spec)) {
    manifest.config.push_back(std::move(kv));
  }

  begin_profile(profile_path, opts.threads);
  const int rc = run_fleet(opts, manifest, out);
  if (!emit_profile(profile_path, manifest, out)) return 1;
  if (!write_manifest_sidecar(manifest, opts.sink_path)) return 1;
  if (!opts.node_telemetry_out.empty() &&
      !write_manifest_sidecar(manifest, opts.node_telemetry_out)) {
    return 1;
  }
  if (!opts.quality.path.empty() &&
      !write_manifest_sidecar(manifest, opts.quality.path)) {
    return 1;
  }
  return rc;
}

int cmd_profile_report(util::ArgParser& args, std::ostream& out) {
  const std::string in_path = args.get_string(
      "in", "profile.jsonl", "profile JSONL sink (from --profile-out)");
  const std::string out_path =
      args.get_string("out", "profile.html", "output HTML dashboard");
  const std::string chrome_out = args.get_string(
      "chrome-out", "",
      "also re-export the profile as Chrome trace-event JSON (Perfetto)");
  const std::string title =
      args.get_string("title", "tgcover execution profile", "report headline");
  configure_logging(args);
  args.finish();

  const ProfileLoad load = load_profile(in_path);
  if (!load.error.empty()) {
    out << "error: " << load.error << "\n";
    return 1;
  }
  if (load.skipped > 0) {
    TGC_LOG(kWarn) << "profile sink has unreadable lines"
                   << obs::kv("skipped", load.skipped);
  }

  const std::string html = render_profile_report_html(load, title);
  if (!write_html(out_path, html, out)) return 1;
  std::size_t events = 0;
  for (const obs::WorkerProfile& w : load.data.workers) {
    events += w.events.size();
  }
  out << "wrote profile report (" << load.data.workers.size() << " workers, "
      << events << " events) to " << out_path << "\n";

  if (!chrome_out.empty()) {
    obs::JsonlWriter w(chrome_out);
    if (w.ok()) obs::write_profile_chrome_trace(load.data, w.stream());
    if (!w.close()) {
      TGC_LOG(kError) << "trace sink failed" << obs::kv("error", w.error());
      return 1;
    }
    out << "wrote Chrome trace to " << chrome_out << "\n";
  }
  return 0;
}

int cmd_node_report(util::ArgParser& args, std::ostream& out) {
  const std::string in_path =
      args.get_string("in", "node_telemetry.jsonl",
                      "node telemetry JSONL sink (from --node-telemetry-out)");
  const std::string out_path =
      args.get_string("out", "nodes.html", "output HTML dashboard");
  const std::string title = args.get_string(
      "title", "tgcover node telemetry", "report headline");
  configure_logging(args);
  args.finish();

  const NodeTelemetryLoad load = load_node_telemetry(in_path);
  if (!load.error.empty()) {
    out << "error: " << load.error << "\n";
    return 1;
  }
  if (load.skipped > 0) {
    TGC_LOG(kWarn) << "node telemetry sink has unreadable lines"
                   << obs::kv("skipped", load.skipped);
  }

  const std::string html = render_node_report_html(load, title);
  if (!write_html(out_path, html, out)) return 1;
  out << "wrote node report (" << load.nodes << " nodes, " << load.rounds
      << " rounds, " << load.round_records.size() << " round records) to "
      << out_path << "\n";
  return 0;
}

int cmd_quality_report(util::ArgParser& args, std::ostream& out) {
  const std::string in_path = args.get_string(
      "in", "quality.jsonl", "quality JSONL sink (from --quality-out)");
  const std::string out_path =
      args.get_string("out", "quality.html", "output HTML dashboard");
  const std::string title = args.get_string(
      "title", "tgcover coverage quality", "report headline");
  configure_logging(args);
  args.finish();

  const QualityLoad load = load_quality(in_path);
  if (!load.error.empty()) {
    out << "error: " << load.error << "\n";
    return 1;
  }
  if (load.skipped > 0) {
    TGC_LOG(kWarn) << "quality sink has unreadable lines"
                   << obs::kv("skipped", load.skipped);
  }

  const std::string html = render_quality_report_html(load, title);
  if (!write_html(out_path, html, out)) return 1;
  out << "wrote quality report (" << load.rounds.size()
      << " sampled rounds, " << load.violations.size()
      << " violation(s)) to " << out_path << "\n";
  return 0;
}

int cmd_scale(util::ArgParser& args, std::ostream& out) {
  ScaleOptions opts;
  opts.in_path = args.get_string("in", "network.tgc", "input network file");
  opts.tau = declare_tau(args);
  opts.seed = declare_mis_seed(args);
  opts.band = declare_band(args);
  const std::string ladder = args.get_string(
      "threads", "1,2,4",
      "comma-separated thread ladder, must start at 1 (the serial baseline)");
  opts.repeat = static_cast<unsigned>(args.get_int(
      "repeat", 3, "repeats per rung; wall time is the minimum"));
  opts.json_path = args.get_string("json", "speedup.json",
                                   "speedup-curve JSON sink (empty = none)");
  opts.html_path = args.get_string("out", "scale.html",
                                   "speedup-curve HTML chart (empty = none)");
  configure_logging(args);
  args.finish();
  const obs::RunManifest manifest =
      make_manifest("scale", args, {"in", "tau", "seed", "band"});

  opts.threads.clear();
  for (std::size_t start = 0; start <= ladder.size();) {
    const std::size_t comma = ladder.find(',', start);
    const std::size_t end = comma == std::string::npos ? ladder.size() : comma;
    if (end > start) {
      const std::string item = ladder.substr(start, end - start);
      char* stop = nullptr;
      const unsigned long v = std::strtoul(item.c_str(), &stop, 10);
      TGC_CHECK_MSG(stop != nullptr && *stop == '\0' && v >= 1 && v <= 1024,
                    "bad --threads rung '" << item
                                           << "' (want integers in [1, 1024])");
      opts.threads.push_back(static_cast<unsigned>(v));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  const int rc = run_scale(opts, manifest, out);
  if (rc == 0 && !opts.json_path.empty()) {
    if (!write_manifest_sidecar(manifest, opts.json_path)) return 1;
  }
  return rc;
}

int cmd_fleet_report(util::ArgParser& args, std::ostream& out) {
  const std::string in_path = args.get_string(
      "in", "fleet.jsonl", "fleet JSONL sink (from `tgcover fleet`)");
  const std::string out_path =
      args.get_string("out", "fleet.html", "output HTML dashboard");
  const std::string title =
      args.get_string("title", "tgcover fleet report", "report headline");
  configure_logging(args);
  args.finish();

  const FleetSink sink = load_fleet_sink(in_path);
  if (!sink.error.empty()) {
    out << "error: " << sink.error << "\n";
    return 1;
  }
  if (sink.runs.empty()) {
    out << "error: no run records in " << in_path
        << " — produce one with `tgcover fleet`\n";
    return 1;
  }
  if (sink.skipped > 0) {
    TGC_LOG(kWarn) << "fleet sink has unreadable lines"
                   << obs::kv("skipped", sink.skipped);
  }

  const std::string html = render_fleet_report_html(sink, title);
  if (!write_html(out_path, html, out)) return 1;
  out << "wrote fleet report (" << sink.runs.size() << " runs";
  if (sink.skipped > 0) out << ", " << sink.skipped << " lines skipped";
  out << ") to " << out_path << "\n";
  return 0;
}

/// Copies a run (directory or single JSONL file) into the baseline slot,
/// replacing whatever was saved before.
void save_baseline(const std::string& src, const std::string& dir,
                   std::ostream& out) {
  namespace fs = std::filesystem;
  TGC_CHECK_MSG(fs::exists(src), "cannot save missing run '" << src << "'");
  TGC_CHECK_MSG(!fs::exists(dir) || !fs::equivalent(src, dir),
                "refusing to save the baseline onto itself ('" << src
                                                               << "')");
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (fs::is_directory(src)) {
    fs::copy(src, dir,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  } else {
    fs::copy_file(src, fs::path(dir) / fs::path(src).filename(),
                  fs::copy_options::overwrite_existing);
  }
  out << "saved baseline " << src << " -> " << dir << "\n";
}

int cmd_compare(std::vector<std::string> runs, util::ArgParser& args,
                std::ostream& out) {
  const std::string allow = args.get_string(
      "allow-diff", "",
      "comma-separated semantic config keys allowed to differ (e.g. "
      "\"seed\"; \"manifest\" compares runs without provenance)");
  const double threshold = args.get_double(
      "threshold", 5.0, "highlight logical-cost regressions above this %");
  const std::string json_path = args.get_string(
      "json", "compare.json", "machine-readable delta sink (empty = none)");
  const std::string html_path = args.get_string(
      "out", "compare.html", "HTML diff dashboard sink (empty = none)");
  const std::string title = args.get_string(
      "title", "tgcover run comparison", "dashboard headline");
  const bool save = args.get_flag(
      "save",
      "after a clean compare, store the last run as the saved baseline "
      "(with a single run and no --against-last: save without comparing)");
  const bool against_last = args.get_flag(
      "against-last", "compare the given run(s) against the saved baseline");
  const std::string baseline_dir = args.get_string(
      "baseline-dir", ".tgcover/baseline",
      "where --save / --against-last keep the baseline run");
  configure_logging(args);
  args.finish();

  if (against_last) {
    if (!std::filesystem::exists(baseline_dir)) {
      out << "error: no saved baseline at '" << baseline_dir
          << "' — create one with `tgcover compare RUN --save`\n";
      return 1;
    }
    runs.insert(runs.begin(), baseline_dir);
  }
  if (save && runs.size() == 1) {
    // Seeding the workflow: nothing to diff yet, just remember this run.
    save_baseline(runs.front(), baseline_dir, out);
    return 0;
  }

  CompareOptions opts;
  opts.runs = runs;
  for (std::size_t start = 0; start <= allow.size();) {
    const std::size_t comma = allow.find(',', start);
    const std::size_t end = comma == std::string::npos ? allow.size() : comma;
    if (end > start) {
      opts.allow_diff.push_back(allow.substr(start, end - start));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  opts.threshold_pct = threshold;
  opts.json_path = json_path;
  opts.html_path = html_path;
  opts.title = title;
  const int rc = compare_runs(opts, out);
  if (save && rc == 0) {
    // Only a clean compare advances the baseline — a regressed run must
    // never silently become the new reference.
    save_baseline(runs.back(), baseline_dir, out);
  }
  return rc;
}

int cmd_version(std::ostream& out) {
  out << kToolName << " " << kToolVersion << "\n"
      << "git:      " << kGitSha << "\n"
      << "build:    " << kBuildType << " (" << kCompiler << ")\n"
      << "flags:    " << kBuildFlags << "\n"
      << "span timers " << (obs::kCompiledIn ? "compiled in" : "compiled out")
      << " (logical counters always on), log floor "
      << obs::log_level_name(
             static_cast<obs::LogLevel>(TGC_LOG_FLOOR))
      << "\n";
  return 0;
}

void print_help(std::ostream& out) {
  out << "tgcover — distributed confine coverage (ICDCS'10 reproduction)\n"
         "usage: tgcover <command> [--key value ...]\n\n"
         "commands:\n"
         "  generate       create a deployment (--type udg|quasi|strip"
         " --nodes N --degree D\n"
         "                 --seed S --out FILE)\n"
         "  schedule       run DCC (--in FILE --tau T --out MASK --threads"
         " N)\n"
         "  verify         certify a schedule (--in FILE --schedule MASK"
         " --tau T)\n"
         "  quality        void sizes + smallest certifiable tau (--in FILE\n"
         "                 [--schedule MASK] [--gamma G])\n"
         "  render         draw as SVG (--in FILE [--schedule MASK] --out"
         " SVG)\n"
         "  trace          synthesize a GreenOrbs-style RSSI-trace network\n"
         "  distributed    run the real message-passing scheduler, report"
         " cost\n"
         "                 (--threads N; --async [--loss P --min-delay D"
         " --max-delay D\n"
         "                 --net-seed S --retransmit I] runs over the lossy"
         " asynchronous\n"
         "                 engine; --trace-out FILE writes Chrome/Perfetto"
         " JSON,\n"
         "                 --trace-jsonl FILE the compact causal event"
         " trace,\n"
         "                 --trace-clock wall|sim picks the Chrome timeline)\n"
         "  repair         wake sleepers around crashed nodes and"
         " re-certify\n"
         "  stats          aggregate a telemetry JSONL into a per-round"
         " table\n"
         "                 (stats FILE | --in FILE [--csv])\n"
         "  trace-analyze  causal analysis of a --trace-jsonl file: critical"
         " path,\n"
         "                 per-node traffic, latency, loss recovery\n"
         "                 (trace-analyze FILE [--check] [--top N])\n"
         "  report         fuse a round log + trace into one self-contained"
         " HTML\n"
         "                 dashboard (report [METRICS|DIR] [--rounds FILE]"
         " [--trace FILE]\n"
         "                 [--out report.html] [--title T])\n"
         "  fleet          expand a parameter grid (--models M,.. --nodes"
         " N,.. --degrees D,..\n"
         "                 --taus T,.. --losses P,.. --seeds S,.. or --spec"
         " grid.json) and\n"
         "                 run every cell over the thread pool (--threads"
         " N), streaming\n"
         "                 one summary record per run to --out FILE (JSONL;"
         " failed cells\n"
         "                 become status:\"failed\" rows and the campaign"
         " keeps going;\n"
         "                 --resume skips cells already recorded ok and"
         " appends the rest)\n"
         "  fleet-report   render a fleet sink as an aggregate HTML"
         " dashboard: per-facet\n"
         "                 heatmaps of awake-set ratio and logical cost over"
         " n x tau,\n"
         "                 across-seed sparklines, failure table\n"
         "                 (fleet-report [SINK] [--in FILE] [--out"
         " fleet.html])\n"
         "  profile-report render a --profile-out sink as a per-worker"
         " timeline HTML\n"
         "                 dashboard: utilization heatmap, phase breakdown,"
         " barrier\n"
         "                 stalls, Amdahl summary, memory telemetry\n"
         "                 (profile-report [SINK] [--in FILE] [--out"
         " profile.html]\n"
         "                 [--chrome-out FILE] re-exports for Perfetto)\n"
         "  quality-report render a --quality-out sink as a coverage-quality"
         " HTML\n"
         "                 dashboard: coverage/hole/connectivity timelines,"
         " k-coverage\n"
         "                 heatmap, bound-margin chart, violation table\n"
         "                 (quality-report [SINK] [--in FILE]"
         " [--out quality.html])\n"
         "  node-report    render a --node-telemetry-out sink as a spatial"
         " hotspot HTML\n"
         "                 dashboard: deployment overlays shaded by traffic"
         " and energy,\n"
         "                 link-matrix heatmap, per-round convergence"
         " timelines, top\n"
         "                 talkers (node-report [SINK] [--in FILE]"
         " [--out nodes.html])\n"
         "  scale          honest scaling harness: re-run one config at"
         " --threads 1,2,..\n"
         "                 (ladder starts at 1), hard-fail unless every rung"
         " yields the\n"
         "                 bit-identical schedule digest, write the speedup"
         " curve to\n"
         "                 --json FILE and --out HTML; rungs beyond the"
         " machine's cores\n"
         "                 are flagged oversubscribed and make no speedup"
         " claim\n"
         "  compare        diff two or more runs by machine-independent"
         " logical cost\n"
         "                 (compare RUN1 RUN2 [RUN...] [--allow-diff"
         " key,...]\n"
         "                 [--threshold PCT] [--json compare.json]"
         " [--out compare.html];\n"
         "                 refuses runs whose semantic config differs;"
         " wall-clock is\n"
         "                 reported but advisory; --save stores the last run"
         " as the\n"
         "                 baseline, --against-last compares against the"
         " stored one,\n"
         "                 --baseline-dir DIR picks the slot)\n"
         "  version        print tool version, git revision, and build"
         " flags\n"
         "  help           this text\n\n"
         "schedule / distributed / repair accept --metrics (per-round table"
         " on stderr),\n"
         "--metrics-out FILE (per-round JSONL for `tgcover stats` /"
         " `tgcover report`),\n"
         "and --cost-out FILE (logical-cost-only JSONL, byte-identical"
         " across hosts,\n"
         "thread counts, and log levels; a manifest.json run-provenance"
         " sidecar lands\n"
         "next to every sink).\n"
         "schedule / distributed / repair / fleet accept --profile-out FILE"
         " (per-worker\n"
         "task/idle/barrier timelines, phase totals, and memory telemetry;"
         " render with\n"
         "`tgcover profile-report`).\n"
         "distributed / repair / fleet accept --node-telemetry-out FILE"
         " (per-node\n"
         "traffic, synchronizer backlog, and radio-energy telemetry;"
         " --energy-tx /\n"
         "--energy-rx / --energy-idle set the radio model; render with"
         " `tgcover\n"
         "node-report`).\n"
         "schedule / distributed / repair / fleet accept --quality-out FILE"
         " (per-round\n"
         "geometric coverage audit: coverage fraction, k-coverage, hole"
         " diameters vs\n"
         "the Proposition 1 bound, connectivity, certifiable tau; --rs /"
         " --quality-every\n"
         "/ --quality-cell shape the probe; render with `tgcover"
         " quality-report`).\n"
         "every command accepts --log-level debug|info|warn|error|off,"
         " --log-out FILE,\n"
         "and --flight N (keep the last N log lines per thread for crash"
         " dumps).\n"
         "options may be spelled --key value or --key=value.\n";
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out) {
  if (argc < 2) {
    print_help(out);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_help(out);
    return 0;
  }
  if (command == "version" || command == "--version" || command == "-V") {
    return cmd_version(out);
  }
  // Re-pack so ArgParser sees "tgcover <command> --k v ..." — the composed
  // program name is what finish() prints in unknown-option errors, so the
  // message names the subcommand. `stats`, `trace-analyze`, and `report`
  // also accept their input positionally (`tgcover stats m.jsonl`); rewrite
  // that form to the named option.
  const std::string program = "tgcover " + command;
  std::vector<const char*> rest;
  rest.push_back(program.c_str());
  int first = 2;
  if ((command == "stats" || command == "trace-analyze" ||
       command == "report" || command == "fleet-report" ||
       command == "profile-report" || command == "node-report" ||
       command == "quality-report") &&
      argc > 2 && argv[2][0] != '-') {
    rest.push_back(command == "report" ? "--rounds" : "--in");
    rest.push_back(argv[2]);
    first = 3;
  }
  // `compare` takes its run directories positionally, before any options.
  std::vector<std::string> compare_paths;
  if (command == "compare") {
    while (first < argc && argv[first][0] != '-') {
      compare_paths.emplace_back(argv[first]);
      ++first;
    }
  }
  for (int i = first; i < argc; ++i) rest.push_back(argv[i]);
  util::ArgParser args(static_cast<int>(rest.size()), rest.data());

  if (command == "generate") return cmd_generate(args, out);
  if (command == "schedule") return cmd_schedule(args, out);
  if (command == "verify") return cmd_verify(args, out);
  if (command == "quality") return cmd_quality(args, out);
  if (command == "render") return cmd_render(args, out);
  if (command == "trace") return cmd_trace(args, out);
  if (command == "distributed") return cmd_distributed(args, out);
  if (command == "repair") return cmd_repair(args, out);
  if (command == "stats") return cmd_stats(args, out);
  if (command == "trace-analyze") return cmd_trace_analyze(args, out);
  if (command == "report") return cmd_report(args, out);
  if (command == "fleet") return cmd_fleet(args, out);
  if (command == "fleet-report") return cmd_fleet_report(args, out);
  if (command == "profile-report") return cmd_profile_report(args, out);
  if (command == "node-report") return cmd_node_report(args, out);
  if (command == "quality-report") return cmd_quality_report(args, out);
  if (command == "scale") return cmd_scale(args, out);
  if (command == "compare") {
    return cmd_compare(std::move(compare_paths), args, out);
  }
  out << "unknown command '" << command << "'\n";
  print_help(out);
  return 2;
}

}  // namespace tgc::app
