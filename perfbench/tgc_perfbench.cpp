// tgcover benchmark program.
//
// Runs one named workload through the library's public entry points
// (core::dcc_schedule, core::dcc_schedule_distributed_async,
// core::dcc_repair), checks every output, and prints one JSON result object
// as the last line of stdout. With --trace 1 it instead makes one call with
// the logical-cost counters armed and then times the calls into each module
// (gen, core prepare, graph, cycle, util, core, sim) from this file, one call
// at a time. See README.md beside this file for the workloads and metrics.
//
//   tgc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--git-sha SHA] [--tiny]

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/candidates.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/io/network_io.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/sim/async.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/args.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/digest.hpp"
#include "tgcover/util/gf2_elim.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/version.hpp"

namespace {

using namespace tgc;
using graph::Graph;
using graph::VertexId;
using Clock = std::chrono::steady_clock;

enum class Kind { kOracle, kAsync, kRepair };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t nodes;
  std::size_t tiny_nodes;  ///< harness self-check size (--tiny)
  unsigned tau;
  /// Deployment seed: the first one whose full network certifies at τ (the
  /// paper's standing premise, under which Theorem 5 is checkable). The
  /// workload seed drives the MIS priorities and the radio delays and losses.
  std::uint64_t deploy_seed;
  double loss;        ///< per-message loss of the simulated radio
  double crash_frac;  ///< repair: share of awake internal nodes crashed
  /// Traced run: every sample_every-th VPT test is re-issued layer by layer.
  std::size_t sample_every;
};

// Why these three: README.md. The repair workload uses τ=6 because at τ=4 a
// removed interior node leaves irreducible 6-cycles that no wake radius can
// re-certify, so the repair would escalate to the whole network and fail.
constexpr Workload kWorkloads[] = {
    {.name = "oracle-udg1600", .kind = Kind::kOracle, .nodes = 1600,
     .tiny_nodes = 200, .tau = 4, .deploy_seed = 8, .loss = 0.0,
     .crash_frac = 0.0, .sample_every = 8},
    {.name = "async-lossy-udg400", .kind = Kind::kAsync, .nodes = 400,
     .tiny_nodes = 120, .tau = 4, .deploy_seed = 3, .loss = 0.1,
     .crash_frac = 0.0, .sample_every = 1},
    {.name = "repair-udg800-tau6", .kind = Kind::kRepair, .nodes = 800,
     .tiny_nodes = 200, .tau = 6, .deploy_seed = 1, .loss = 0.0,
     .crash_frac = 0.07, .sample_every = 4},
};

constexpr double kDegree = 25.0;  // the paper's Fig. 3/4 average degree
constexpr double kRc = 1.0;
constexpr double kBand = 1.0;     // periphery band width, as `tgcover --band`
constexpr int kSetupReps = 9;     // setup_s is the median of this many
/// T, the worker threads of every timed call. On a 4-vCPU virtual machine
/// one async call at T=4 varied by 40% from run to run and one oracle call
/// by 10%; at T=1 both varied by 2-3%.
constexpr unsigned kThreads = 1;
/// P = min(nproc, 4): the threads of the repair set-up schedule, and the
/// threaded side of util.pool_speedup in the traced run.
constexpr unsigned kMaxPoolThreads = 4;
constexpr std::uint64_t kCrashSiteSeed = 1;  // see draw_crashes
/// MIS seed of the repair's pre-crash schedule. Left to the workload seed,
/// it changed which nodes the crash hit, and with them the repair time by
/// 13.3-18.0 s over five seeds at T=1. The workload seed still drives the
/// repair's own MIS priorities.
constexpr std::uint64_t kRepairScheduleSeed = 1;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) {
  return den == 0.0 ? std::numeric_limits<double>::quiet_NaN() : num / den;
}

std::size_t count_true(const std::vector<bool>& mask) {
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Returns freed heap to the OS and restarts the kernel's peak-RSS mark
/// (VmHWM), so the next peak_rss_mb() reading covers only what follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set size (VmHWM) in MiB: since the last reset_peak_rss(),
/// or since the process started where the kernel refuses the reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads in kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Metrics in print order; a non-finite value prints as null.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": ";
      if (std::isfinite(m.value)) {
        os << m.value;
      } else {
        os << "null";
      }
      os << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Setup: deployment, prepare_network, and (repair) the schedule plus crashes.

struct Setup {
  core::Network net;
  core::DccConfig config;
  std::vector<bool> active_before;  ///< repair: the schedule the crash hits
  std::vector<bool> failed;         ///< repair: the crashed nodes
  double deploy_s = 0.0;
  double prepare_s = 0.0;
  double setup_s = 0.0;
};

/// Crashes ⌈crash_frac · |awake internal|⌉ nodes drawn from the awake
/// *internal* nodes — the fixed-boundary-cycle failure model the repair
/// certificate is defined against (a crashed boundary-cycle node makes
/// dcc_repair throw; see README.md, "Known defect").
///
/// Crashes the awake internal node nearest to each of a fixed list of
/// failure sites, uniform over the deployment area. The sites do not depend
/// on the workload seed; the schedule they hit, and so the crashed nodes, do.
/// Drawing the crashed nodes uniformly instead made repair time vary by ±15%
/// and repair memory by ±30% from draw to draw, more than any bound could
/// absorb.
std::vector<bool> draw_crashes(const core::Network& net,
                               const std::vector<bool>& awake,
                               double crash_frac) {
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < awake.size(); ++v) {
    if (awake[v] && net.internal[v]) pool.push_back(v);
  }
  TGC_CHECK_MSG(!pool.empty(), "no awake internal node to crash");
  const auto count = std::min(
      pool.size(),
      static_cast<std::size_t>(std::ceil(crash_frac * pool.size())));
  const geom::Rect& area = net.dep.area;
  util::Rng sites(kCrashSiteSeed);
  std::vector<bool> failed(awake.size(), false);
  for (std::size_t i = 0; i < count; ++i) {
    const geom::Point site{sites.uniform(area.xmin, area.xmax),
                           sites.uniform(area.ymin, area.ymax)};
    VertexId nearest = graph::kInvalidVertex;
    for (const VertexId v : pool) {
      if (failed[v]) continue;
      if (nearest == graph::kInvalidVertex ||
          geom::dist2(net.dep.positions[v], site) <
              geom::dist2(net.dep.positions[nearest], site)) {
        nearest = v;
      }
    }
    failed[nearest] = true;
  }
  return failed;
}

/// dcc_schedule at `config`, computed in a child process. Threads allocate
/// from per-thread malloc arenas, and a threaded schedule left them
/// fragmented differently from run to run: the repair call that followed it
/// in the same process peaked at 27-41 MB of RSS on one input, against 22.2 MB
/// every time after a serial schedule. The child's heap goes with the child.
std::vector<bool> schedule_in_child(const core::Network& net,
                                    const core::DccConfig& config) {
  const std::size_t n = net.dep.graph.num_vertices();
  int fds[2];
  TGC_CHECK_MSG(pipe(fds) == 0, "pipe failed");
  std::cout.flush();
  const pid_t pid = fork();
  TGC_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    close(fds[0]);
    bool ok = false;
    try {
      const std::vector<bool> active =
          core::dcc_schedule(net.dep.graph, net.internal, config).active;
      std::string bytes(n, '\0');
      for (VertexId v = 0; v < n; ++v) bytes[v] = active[v] ? 1 : 0;
      std::size_t sent = 0;
      while (sent < n) {
        const ssize_t k = write(fds[1], bytes.data() + sent, n - sent);
        if (k <= 0) break;
        sent += static_cast<std::size_t>(k);
      }
      ok = sent == n;
    } catch (...) {
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes(n, '\0');
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = read(fds[0], bytes.data() + got, n - got);
    if (k <= 0) break;
    got += static_cast<std::size_t>(k);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  TGC_CHECK_MSG(got == n && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                "set-up schedule failed in the child process");
  std::vector<bool> active(n);
  for (VertexId v = 0; v < n; ++v) active[v] = bytes[v] != 0;
  return active;
}

Setup set_up(const Workload& w, std::size_t nodes, std::uint64_t seed,
             unsigned pool) {
  Setup s;
  std::vector<double> deploy;
  std::vector<double> prepare;
  std::vector<double> total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    util::Rng rng(w.deploy_seed);
    auto t0 = Clock::now();
    gen::Deployment dep = gen::random_connected_udg(
        nodes, gen::side_for_average_degree(nodes, kRc, kDegree), kRc, rng);
    deploy.push_back(since(t0));
    t0 = Clock::now();
    s.net = core::prepare_network(std::move(dep), kBand);
    prepare.push_back(since(t0));
    total.push_back(deploy.back() + prepare.back());
  }
  s.deploy_s = median(deploy);
  s.prepare_s = median(prepare);
  s.setup_s = median(total);
  s.config.tau = w.tau;
  s.config.seed = seed;
  s.config.num_threads = kThreads;
  if (w.kind == Kind::kRepair) {
    const auto t0 = Clock::now();
    // Schedules do not depend on the thread count (the traced run checks
    // this), so the set-up schedule may use the whole pool.
    core::DccConfig schedule = s.config;
    schedule.seed = kRepairScheduleSeed;
    schedule.num_threads = pool;
    s.active_before = schedule_in_child(s.net, schedule);
    s.failed = draw_crashes(s.net, s.active_before, w.crash_frac);
    s.setup_s += since(t0);
  }
  return s;
}

// ---------------------------------------------------------------------------
// The timed call and its correctness checks.

struct Outcome {
  std::vector<bool> active;  ///< awake set after the call
  double wall_s = 0.0;
  double peak_mb = 0.0;      ///< peak RSS during the call
  bool restored = true;      ///< repair: criterion_restored
  std::size_t woken = 0;     ///< repair
  unsigned radius = 0;       ///< repair: final wake radius
};

Outcome timed_call(const Workload& w, const Setup& s, unsigned threads) {
  const Graph& g = s.net.dep.graph;
  core::DccConfig config = s.config;
  config.num_threads = threads;
  core::DccAsyncOptions async;
  async.net.loss_probability = w.loss;
  async.net.seed = config.seed;
  Outcome out;
  reset_peak_rss();
  const auto t0 = Clock::now();
  switch (w.kind) {
    case Kind::kOracle:
      out.active = core::dcc_schedule(g, s.net.internal, config).active;
      break;
    case Kind::kAsync:
      out.active = core::dcc_schedule_distributed_async(
                       g, s.net.internal, config, async)
                       .schedule.active;
      break;
    case Kind::kRepair: {
      core::RepairResult r = core::dcc_repair(
          g, s.net.internal, s.active_before, s.failed, s.net.cb,
          config);
      out.active = std::move(r.active);
      out.restored = r.criterion_restored;
      out.woken = r.woken;
      out.radius = r.final_radius;
      break;
    }
  }
  out.wall_s = since(t0);
  out.peak_mb = peak_rss_mb();
  return out;
}

/// Checks one call's output; empty string = correct. Runs outside the timed
/// region. Identical outputs of one input share one verdict (the inputs
/// never change within a run, so every call on them should return the same
/// awake set).
class Checker {
 public:
  Checker(const Workload& w, const Setup& s) : w_(w), s_(s) {}

  std::string check(const Outcome& out) {
    if (!last_active_.has_value() || *last_active_ != out.active ||
        last_restored_ != out.restored) {
      last_verdict_ = evaluate(out);
      last_active_ = out.active;
      last_restored_ = out.restored;
    }
    return last_verdict_;
  }

 private:
  std::string evaluate(const Outcome& out) {
    const Graph& g = s_.net.dep.graph;
    switch (w_.kind) {
      case Kind::kOracle: {
        const core::VptConfig vpt = s_.config.vpt();
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (!s_.net.internal[v] && !out.active[v]) {
            return "boundary node " + std::to_string(v) + " was deleted";
          }
          if (s_.net.internal[v] && out.active[v] &&
              core::vpt_vertex_deletable(g, out.active, v, vpt)) {
            return "not a fixpoint: awake node " + std::to_string(v) +
                   " is still VPT-deletable";
          }
        }
        // Theorem 5: VPT deletions keep CB τ-partitionable. Conversely no
        // awake subset certifies when the whole network does not (short
        // cycles of a subgraph are short cycles of the graph), so the
        // schedule certifies exactly when the full network does.
        if (!reference_.has_value()) {
          reference_ = core::criterion_holds(
              g, std::vector<bool>(g.num_vertices(), true), s_.net.cb,
              w_.tau);
        }
        if (core::criterion_holds(g, out.active, s_.net.cb, w_.tau) !=
            *reference_) {
          return *reference_
                     ? "schedule lost the tau-confine certificate"
                     : "schedule certifies although the network does not";
        }
        return "";
      }
      case Kind::kAsync: {
        // Byte identity: the lossy async protocol elects exactly the serial
        // oracle's schedule for the same config.
        if (!oracle_digest_.has_value()) {
          core::DccConfig serial = s_.config;
          serial.num_threads = 1;
          oracle_digest_ = io::mask_digest(
              core::dcc_schedule(g, s_.net.internal, serial).active);
        }
        const std::uint64_t got = io::mask_digest(out.active);
        if (got != *oracle_digest_) {
          return "async digest " + util::hex64(got) + " != oracle digest " +
                 util::hex64(*oracle_digest_);
        }
        return "";
      }
      case Kind::kRepair: {
        const std::vector<bool>& failed = s_.failed;
        std::vector<bool> survivors(g.num_vertices());
        for (VertexId v = 0; v < out.active.size(); ++v) {
          if (out.active[v] && failed[v]) {
            return "failed node " + std::to_string(v) + " is awake";
          }
          survivors[v] = !failed[v];
        }
        // The repair must restore the certificate whenever waking every
        // survivor would (its escalation ends there at the latest).
        if (!reference_.has_value()) {
          reference_ = core::criterion_holds(g, survivors, s_.net.cb, w_.tau);
        }
        if (out.restored != *reference_) {
          return *reference_
                     ? "repair did not restore the certificate"
                     : "repair claims a certificate the survivors cannot "
                       "have";
        }
        return "";
      }
    }
    return "unknown workload kind";
  }

  const Workload& w_;
  const Setup& s_;
  std::optional<std::vector<bool>> last_active_;
  bool last_restored_ = true;
  std::string last_verdict_;
  std::optional<std::uint64_t> oracle_digest_;
  /// Criterion on the full (oracle) or surviving (repair) network.
  std::optional<bool> reference_;
};

/// Attempted / failed operation tally. A failed operation is a failed check
/// or a thrown CheckError.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(const std::string& what, const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    std::cerr << "check failed (" << what << "): " << failure << "\n";
  }
};

// ---------------------------------------------------------------------------
// Traced run: per-call layer timings from this file.

/// Per-layer call durations. Every timed call is a leaf (no timed call runs
/// inside another), so the sum of durations is the layers' self time.
class LayerClock {
 public:
  template <typename F>
  auto time(const std::string& layer, F&& f) {
    const auto t0 = Clock::now();
    auto result = f();
    const double s = since(t0);
    ns_[layer].push_back(s * 1e9);
    covered_s_ += s;
    return result;
  }

  double median_ns(const std::string& layer) const {
    const auto it = ns_.find(layer);
    return it == ns_.end() ? std::numeric_limits<double>::quiet_NaN()
                           : median(it->second);
  }
  double total_s(const std::string& layer) const {
    const auto it = ns_.find(layer);
    if (it == ns_.end()) return 0.0;
    double sum = 0.0;
    for (const double ns : it->second) sum += ns;
    return sum / 1e9;
  }
  std::size_t calls(const std::string& layer) const {
    const auto it = ns_.find(layer);
    return it == ns_.end() ? 0 : it->second.size();
  }
  double covered_s() const { return covered_s_; }

 private:
  std::map<std::string, std::vector<double>> ns_;
  double covered_s_ = 0.0;
};

struct BallTally {
  std::size_t balls = 0;
  std::size_t edges = 0;
  std::size_t candidates = 0;  ///< short-cycle candidates enumerated
  std::size_t rank = 0;        ///< summed final GF(2) rank
};

/// Re-issues one VPT test's sub-layer calls on the same punctured ball:
/// k-hop extraction, ball build, connectivity, the streaming τ-span test,
/// candidate enumeration, and GF(2) insertion of those candidates.
void probe_ball(const Graph& active_graph, VertexId v,
                const core::VptConfig& vpt, LayerClock& clock,
                BallTally& tally) {
  const std::vector<VertexId> members = clock.time("graph.khop_ns", [&] {
    return graph::k_hop_neighbors(active_graph, v, vpt.effective_k());
  });
  const graph::InducedSubgraph ball = clock.time("graph.ball_ns", [&] {
    return graph::induce_vertices(active_graph, members);
  });
  const bool connected = clock.time(
      "graph.connect_ns", [&] { return graph::is_connected(ball.graph); });
  ++tally.balls;
  tally.edges += ball.graph.num_edges();
  if (!connected) return;  // the VPT kernel stops here too
  clock.time("cycle.span_ns",
             [&] { return cycle::short_cycles_span(ball.graph, vpt.tau); });
  cycle::CandidateOptions options;
  options.depth_limit = vpt.tau / 2;
  options.max_length = vpt.tau;
  std::vector<cycle::CandidateCycle> candidates = clock.time(
      "cycle.cand_ns",
      [&] { return cycle::fundamental_cycle_candidates(ball.graph, options); });
  util::Gf2Eliminator elim(ball.graph.num_edges());
  for (cycle::CandidateCycle& c : candidates) {
    clock.time("util.gf2_insert_ns",
               [&] { return elim.insert(std::move(c.edges)); });
  }
  tally.candidates += candidates.size();
  tally.rank += elim.rank();
}

/// One round of verdicts on `active`: every active deletable node's VPT
/// test, each `sample_every`-th one re-issued layer by layer. Returns the
/// candidate mask.
std::vector<bool> round_verdicts(const Graph& g,
                                 const std::vector<bool>& active,
                                 const std::vector<bool>& deletable,
                                 const core::VptConfig& vpt,
                                 std::size_t sample_every, std::size_t& tests,
                                 LayerClock& clock, BallTally& tally) {
  const Graph active_graph = clock.time(
      "graph.filter", [&] { return graph::filter_active(g, active); });
  std::vector<bool> candidate(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!active[v] || !deletable[v]) continue;
    candidate[v] = clock.time("core.vpt_ns", [&] {
      return core::vpt_vertex_deletable(g, active, v, vpt);
    });
    if (tests++ % sample_every == 0) {
      probe_ball(active_graph, v, vpt, clock, tally);
    }
  }
  return candidate;
}

std::vector<bool> mis_oracle(const Graph& g, const std::vector<bool>& active,
                             const std::vector<bool>& candidate,
                             const core::VptConfig& vpt, std::uint64_t seed,
                             std::size_t round, LayerClock& clock) {
  return clock.time("sim.mis_ns", [&] {
    return sim::elect_mis_oracle(g, active, candidate, vpt.mis_radius(),
                                 util::splitmix64(seed + round));
  });
}

struct RadioTally {
  std::size_t messages = 0;
  std::size_t lost = 0;
};

/// Round 1 of the distributed protocol on the simulated radio at the
/// workload's loss: k-hop view collection over an AlphaRunner, every
/// deletable node's local-view verdict, and one distributed m-hop MIS
/// election. Returns an error unless the local verdicts equal the oracle's
/// `candidate` mask and the elected set equals the oracle's `selected`.
std::string probe_radio(const Graph& g, const std::vector<bool>& awake,
                        const std::vector<bool>& deletable,
                        const std::vector<bool>& candidate,
                        const std::vector<bool>& selected,
                        const core::VptConfig& vpt, std::uint64_t seed,
                        double loss, LayerClock& clock, RadioTally& radio) {
  sim::AsyncEngine::Options options;
  options.loss_probability = loss;
  options.seed = seed;
  sim::AsyncEngine engine(g, options);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!awake[v]) engine.deactivate(v);
  }
  sim::AlphaRunner runner(engine);
  const std::vector<sim::LocalView> views = clock.time("sim.khop_collect", [&] {
    return sim::collect_k_hop_views(runner, vpt.effective_k());
  });
  std::vector<bool> local(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!awake[v] || !deletable[v]) continue;
    local[v] = clock.time("core.vpt_local_ns", [&] {
      return core::vpt_vertex_deletable_local(views[v], vpt);
    });
  }
  const sim::MisOutcome mis = clock.time("sim.mis_dist", [&] {
    return sim::elect_mis_distributed(runner, local, vpt.mis_radius(),
                                      util::splitmix64(seed + 1));
  });
  radio.messages = runner.stats().messages;
  radio.lost = engine.messages_lost();
  if (local != candidate) return "local-view verdicts differ from the oracle";
  if (mis.selected != selected) return "distributed MIS differs from oracle";
  return "";
}

/// Non-failed nodes a repair wave of `radius` wakes: asleep before the
/// crash and within `radius` hops of a failure, counting paths that avoid
/// the other failed nodes (sleeping radios relay for this distance).
std::vector<bool> wake_region(const Graph& g, const std::vector<bool>& before,
                              const std::vector<bool>& failed,
                              unsigned radius) {
  std::vector<bool> woken(g.num_vertices(), false);
  for (VertexId f = 0; f < g.num_vertices(); ++f) {
    if (!failed[f]) continue;
    std::vector<bool> relay(g.num_vertices(), false);
    for (VertexId v = 0; v < g.num_vertices(); ++v) relay[v] = !failed[v];
    relay[f] = true;
    for (const VertexId v :
         graph::k_hop_neighbors(graph::filter_active(g, relay), f, radius)) {
      if (!before[v]) woken[v] = true;
    }
  }
  return woken;
}

void run_traced(const Workload& w, const Setup& s, unsigned pool,
                Tally& tally, Report& report) {
  const Graph& g = s.net.dep.graph;
  const core::VptConfig vpt = s.config.vpt();
  Checker checker(w, s);

  // The timed call, bracketed by the exact logical-cost counters (armed
  // only here, so untraced runs pay nothing for them).
  obs::set_enabled(true);
  const obs::CostVec before = obs::cost_snapshot().total();
  const Outcome out = timed_call(w, s, kThreads);
  const obs::CostVec cost = obs::cost_snapshot().total() - before;
  obs::set_enabled(false);
  tally.record("timed call", checker.check(out));

  // Thread invariance and util.pool_speedup: a serial and a threaded call,
  // both with the counters off as in the untraced runs, so that the ratio
  // carries no instrumentation cost on either side.
  const Outcome serial = timed_call(w, s, 1);
  tally.record("serial call", serial.active == out.active
                                  ? checker.check(serial)
                                  : "armed and unarmed schedules differ");
  const Outcome threaded = timed_call(w, s, pool);
  tally.record("threaded call", threaded.active == out.active
                                    ? checker.check(threaded)
                                    : "serial and threaded schedules differ");

  // Replay: layer calls on the workload's own state, one call at a time.
  LayerClock clock;
  BallTally balls;
  RadioTally radio;
  std::size_t tests = 0;
  std::vector<bool> awake(g.num_vertices(), true);
  std::vector<bool> deletable = s.net.internal;
  if (w.kind == Kind::kRepair) {
    const std::vector<bool> woken =
        wake_region(g, s.active_before, s.failed, out.radius);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      awake[v] = !s.failed[v] && (s.active_before[v] || woken[v]);
      deletable[v] = woken[v] && s.net.internal[v];
    }
  }
  const auto replay_t0 = Clock::now();
  // Round 1 (for repair: the final wake wave, over the region its final
  // radius wakes): oracle verdicts and MIS, then the same
  // round over the simulated radio.
  std::vector<bool> candidate = round_verdicts(
      g, awake, deletable, vpt, w.sample_every, tests, clock, balls);
  std::vector<bool> selected =
      mis_oracle(g, awake, candidate, vpt, s.config.seed, 1, clock);
  std::string replay_failure =
      probe_radio(g, awake, deletable, candidate, selected, vpt,
                  s.config.seed, w.loss, clock, radio);
  if (w.kind == Kind::kOracle) {
    // The rest of the oracle round loop, rebuilt from vpt_vertex_deletable
    // and elect_mis_oracle: the scheduler's `incremental = false` path.
    std::vector<bool> active = awake;
    for (std::size_t round = 2; count_true(candidate) > 0; ++round) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (selected[v]) active[v] = false;
      }
      candidate = round_verdicts(g, active, deletable, vpt, w.sample_every,
                                 tests, clock, balls);
      if (count_true(candidate) == 0) break;
      selected = mis_oracle(g, active, candidate, vpt, s.config.seed, round,
                            clock);
    }
    if (io::mask_digest(active) != io::mask_digest(out.active)) {
      replay_failure = "replay digest differs from the untraced digest";
    }
  }
  clock.time("cycle.contain_ns", [&] {
    return core::criterion_holds(g, out.active, s.net.cb, w.tau);
  });
  const double replay_s = since(replay_t0);
  tally.record("replay", replay_failure);

  auto count = [&](obs::CounterId id) {
    return static_cast<double>(cost.get(id));
  };
  const double tests_run = count(obs::CounterId::kVptTests);
  const double radio_s =
      clock.total_s("sim.khop_collect") + clock.total_s("sim.mis_dist");
  report.add("gen.deploy_s", s.deploy_s, "s");
  report.add("core.prepare_s", s.prepare_s, "s");
  report.add("graph.khop_ns", clock.median_ns("graph.khop_ns"), "ns");
  report.add("graph.ball_ns", clock.median_ns("graph.ball_ns"), "ns");
  report.add("graph.connect_ns", clock.median_ns("graph.connect_ns"), "ns");
  report.add("graph.ball_edges",
             ratio(static_cast<double>(balls.edges),
                   static_cast<double>(balls.balls)),
             "edges");
  report.add("graph.bfs_expansions", count(obs::CounterId::kBfsExpansions),
             "count");
  report.add("cycle.span_ns", clock.median_ns("cycle.span_ns"), "ns");
  report.add("cycle.span_calls",
             static_cast<double>(clock.calls("cycle.span_ns")), "count");
  report.add("cycle.cand_ns", clock.median_ns("cycle.cand_ns"), "ns");
  report.add("cycle.cand_per_test",
             ratio(static_cast<double>(balls.candidates),
                   static_cast<double>(clock.calls("cycle.cand_ns"))),
             "count");
  report.add("cycle.horton_candidates",
             count(obs::CounterId::kHortonCandidates), "count");
  report.add("cycle.contain_ns", clock.median_ns("cycle.contain_ns"), "ns");
  report.add("util.gf2_insert_ns", clock.median_ns("util.gf2_insert_ns"),
             "ns");
  report.add("util.gf2_useful_ratio",
             ratio(static_cast<double>(balls.rank),
                   static_cast<double>(balls.candidates)),
             "ratio");
  report.add("util.gf2_pivots", count(obs::CounterId::kGf2Pivots), "count");
  // No speedup from a single-core or an oversubscribed run.
  report.add("util.pool_speedup",
             pool < 2 || pool > std::thread::hardware_concurrency()
                 ? std::numeric_limits<double>::quiet_NaN()
                 : serial.wall_s / threaded.wall_s,
             "x");
  report.add("core.vpt_ns", clock.median_ns("core.vpt_ns"), "ns");
  report.add("core.vpt_tests", tests_run, "count");
  report.add("core.vpt_veto_frac",
             ratio(count(obs::CounterId::kVptVetoed), tests_run), "ratio");
  const double hits = count(obs::CounterId::kVerdictCacheHits);
  report.add("core.cache_hit_ratio", ratio(hits, hits + tests_run), "ratio");
  report.add("core.ball_view_bytes", count(obs::CounterId::kBallViewBytes),
             "bytes");
  report.add("core.vpt_local_ns", clock.median_ns("core.vpt_local_ns"), "ns");
  report.add("core.repair_waves", count(obs::CounterId::kRepairWaves),
             "count");
  report.add("core.repair_woken", static_cast<double>(out.woken), "count");
  report.add("sim.mis_ns", clock.median_ns("sim.mis_ns"), "ns");
  report.add("sim.khop_collect_s", clock.total_s("sim.khop_collect"), "s");
  report.add("sim.mis_dist_s", clock.total_s("sim.mis_dist"), "s");
  report.add("sim.msgs_per_s",
             ratio(static_cast<double>(radio.messages), radio_s), "1/s");
  report.add("sim.messages", count(obs::CounterId::kMessages), "count");
  report.add("sim.payload_words", count(obs::CounterId::kPayloadWords),
             "count");
  report.add("sim.messages_lost", count(obs::CounterId::kMessagesLost),
             "count");
  report.add("sim.retransmissions", count(obs::CounterId::kRetransmissions),
             "count");
  report.add("sim.delivery_ratio",
             ratio(static_cast<double>(radio.messages - radio.lost),
                   static_cast<double>(radio.messages)),
             "ratio");
  report.add("trace.replay_s", replay_s, "s");
  report.add("trace.coverage", clock.covered_s() / replay_s, "ratio");

  std::cout << "traced: timed call " << out.wall_s << " s armed, "
            << serial.wall_s << " s unarmed, " << threaded.wall_s << " s at "
            << pool << " threads, replay " << replay_s << " s ("
            << clock.calls("core.vpt_ns") << " VPT tests, " << balls.balls
            << " re-issued layer by layer), digest "
            << util::hex64(io::mask_digest(out.active)) << "\n";
}

void run_untraced(const Workload& w, const Setup& s, double seconds,
                  Tally& tally, Report& report) {
  // At least one call, then more until the time is up.
  std::vector<Outcome> outcomes;
  const auto start = Clock::now();
  for (std::size_t call = 0; call == 0 || since(start) < seconds; ++call) {
    try {
      outcomes.push_back(timed_call(w, s, kThreads));
    } catch (const CheckError& e) {
      tally.record("timed call", e.what());
    }
  }

  Checker checker(w, s);
  const auto n = static_cast<double>(s.net.dep.graph.num_vertices());
  std::vector<double> walls;
  std::vector<double> peaks;
  std::vector<double> awake;
  for (const Outcome& out : outcomes) {
    walls.push_back(out.wall_s);
    peaks.push_back(out.peak_mb);
    awake.push_back(static_cast<double>(count_true(out.active)) / n);
    tally.record("timed call", checker.check(out));
  }
  report.add("run_s", median(walls), "s");
  report.add("setup_s", s.setup_s, "s");
  report.add("peak_rss_mb", median(peaks), "MB");
  report.add("awake_ratio", median(awake), "ratio");
  std::cout << "untraced: " << walls.size() << " calls, run_s median "
            << median(walls) << " (p25 " << quantile(walls, 0.25) << ", p75 "
            << quantile(walls, 0.75) << "), peak " << median(peaks)
            << " MB, awake ratio " << median(awake);
  if (w.kind == Kind::kRepair && !outcomes.empty()) {
    std::cout << "; " << count_true(s.failed) << " crashed, "
              << outcomes.front().woken << " woken, radius "
              << outcomes.front().radius;
  }
  if (!outcomes.empty()) {
    std::cout << ", digest "
              << util::hex64(io::mask_digest(outcomes.back().active));
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  tgc::util::ArgParser args(argc, argv);
  const std::string name = args.get_string("workload", "", "workload name");
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 1, "workload seed (inputs derive from it)"));
  const double seconds =
      args.get_double("seconds", 10.0, "measurement time per run");
  const bool traced = args.get_int("trace", 0, "1 = per-layer traced run") != 0;
  const unsigned cpus = online_cpus();
  const unsigned pool = std::min(cpus, kMaxPoolThreads);
  const bool tiny = args.get_flag("tiny", "harness self-check sizes");
  const std::string git_sha =
      args.get_string("git-sha", "unknown", "commit built (run.py reads it)");
  args.finish();

  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "unknown --workload '" << name << "'\n";
    return 2;
  }

  const std::size_t nodes = tiny ? w->tiny_nodes : w->nodes;
  std::cout << "provenance {\"workload\": \"" << w->name
            << "\", \"nodes\": " << nodes << ", \"seed\": " << seed
            << ", \"nproc\": " << cpus << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"threads\": " << kThreads << ", \"pool_threads\": " << pool
            << ", \"build_type\": \""
            << tgc::kBuildType << "\", \"tgc_obs\": " << TGC_OBS_ENABLED
            << ", \"build_flags\": \"" << tgc::kBuildFlags
            << "\", \"compiler\": \"" << tgc::kCompiler << "\", \"git_sha\": \""
            << git_sha << "\"}\n";

  Tally tally;
  Report report;
  try {
    const Setup s = set_up(*w, nodes, seed, pool);
    if (traced) {
      run_traced(*w, s, pool, tally, report);
    } else {
      run_untraced(*w, s, seconds, tally, report);
    }
  } catch (const tgc::CheckError& e) {
    tally.record("run", e.what());
  }
  const bool correct = tally.failed == 0;
  std::cout << report.json(correct, tally.attempted, tally.failed) << std::endl;
  return correct ? 0 : 1;
}
