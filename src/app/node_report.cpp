#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"
#include "tgcover/app/node_report.hpp"

namespace tgc::app {

NodeTelemetryLoad load_node_telemetry(const std::string& path) {
  NodeTelemetryLoad load;
  bool header_seen = false;
  const auto visit = [&](obs::JsonRecord& rec) -> std::string {
    const std::string type = rec.text("type");
    if (type == "node_telemetry_header") {
      header_seen = true;
      load.nodes = static_cast<std::size_t>(rec.u64("nodes"));
      load.rounds = rec.u64("rounds");
      load.energy.tx_cost = rec.number("energy_tx", load.energy.tx_cost);
      load.energy.rx_cost = rec.number("energy_rx", load.energy.rx_cost);
      load.energy.idle_cost =
          rec.number("energy_idle", load.energy.idle_cost);
    } else if (type == "node_pos") {
      const auto v = static_cast<std::size_t>(rec.u64("node"));
      if (v >= load.positions.size()) load.positions.resize(v + 1);
      load.positions[v] = {rec.number("x"), rec.number("y")};
      load.has_positions = true;
    } else if (type == "node_round") {
      load.round_records.push_back(std::move(rec));
    } else if (type == "link") {
      load.links.push_back(std::move(rec));
    } else if (type == "node_summary") {
      load.node_summaries.push_back(std::move(rec));
    } else if (type == "talker") {
      load.talkers.push_back(std::move(rec));
    } else if (type == "telemetry_summary") {
      load.summary = std::move(rec);
    } else {
      return "skipping unknown record type '" + type + "'";
    }
    return "";
  };
  obs::JsonlStream stream = obs::read_jsonl_stream(path, visit);
  if (!stream.error.empty()) {
    load.error = "cannot read node telemetry '" + path + "'";
    return load;
  }
  load.manifest = std::move(stream.manifest);
  load.skipped = stream.notes.size();
  if (!header_seen) {
    load.error = "no node_telemetry_header line in '" + path +
                 "' — not a --node-telemetry-out stream";
    return load;
  }
  // The writer emits everything in deterministic order already; sorting here
  // makes the loader robust to concatenated or hand-edited streams.
  std::stable_sort(load.node_summaries.begin(), load.node_summaries.end(),
                   [](const obs::JsonRecord& a, const obs::JsonRecord& b) {
                     return a.u64("node") < b.u64("node");
                   });
  std::stable_sort(load.talkers.begin(), load.talkers.end(),
                   [](const obs::JsonRecord& a, const obs::JsonRecord& b) {
                     return a.u64("rank") < b.u64("rank");
                   });
  std::stable_sort(load.round_records.begin(), load.round_records.end(),
                   [](const obs::JsonRecord& a, const obs::JsonRecord& b) {
                     if (a.u64("round") != b.u64("round")) {
                       return a.u64("round") < b.u64("round");
                     }
                     return a.u64("node") < b.u64("node");
                   });
  return load;
}

namespace {

using html::escape;
using html::fnum;

/// Per-node scalar pulled from the node_summary rows, index = node id.
std::vector<double> per_node(const NodeTelemetryLoad& load,
                             const std::string& key_a,
                             const std::string& key_b = "") {
  std::vector<double> values(load.nodes, 0.0);
  for (const obs::JsonRecord& rec : load.node_summaries) {
    const auto v = static_cast<std::size_t>(rec.u64("node"));
    if (v >= values.size()) continue;
    double x = rec.number(key_a);
    if (!key_b.empty()) x += rec.number(key_b);
    values[v] = x;
  }
  return values;
}

/// The deployment overlay: every node as a dot at its embedded position,
/// shaded by `values[v]` as fill opacity over the heatmap series color —
/// the spatial view of where traffic (or energy) concentrates. Opacity
/// interpolates from a floor so zero-traffic nodes stay visible as context.
void emit_spatial_overlay(std::ostringstream& out,
                          const NodeTelemetryLoad& load,
                          const std::vector<double>& values,
                          const std::string& what) {
  constexpr double kW = 760.0;
  constexpr double kH = 380.0;
  constexpr double kPad = 16.0;
  double min_x = load.positions[0].x, max_x = load.positions[0].x;
  double min_y = load.positions[0].y, max_y = load.positions[0].y;
  for (const obs::NodePosition& p : load.positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  // One uniform scale for both axes keeps the deployment's aspect ratio.
  const double scale =
      std::min(span_x > 0.0 ? (kW - 2 * kPad) / span_x : 1.0,
               span_y > 0.0 ? (kH - 2 * kPad) / span_y : 1.0);
  const double off_x = kPad + ((kW - 2 * kPad) - span_x * scale) / 2.0;
  const double off_y = kPad + ((kH - 2 * kPad) - span_y * scale) / 2.0;
  double max_v = 0.0;
  for (const double v : values) max_v = std::max(max_v, v);

  out << "<svg viewBox=\"0 0 " << fnum(kW, 0) << ' ' << fnum(kH, 0)
      << "\" role=\"img\" aria-label=\"" << escape(what) << "\">\n";
  for (std::size_t v = 0; v < load.positions.size() && v < values.size();
       ++v) {
    const obs::NodePosition& p = load.positions[v];
    const double cx = off_x + (p.x - min_x) * scale;
    // SVG y grows downward; flip so the overlay matches the embedding.
    const double cy = kH - (off_y + (p.y - min_y) * scale);
    const double t = max_v > 0.0 ? values[v] / max_v : 0.0;
    out << "<circle class=\"hm\" cx=\"" << fnum(cx, 1) << "\" cy=\""
        << fnum(cy, 1) << "\" r=\"3.5\" fill-opacity=\""
        << fnum(0.12 + 0.88 * t, 3) << "\"><title>node " << v << " — "
        << escape(what) << ' ' << fnum(values[v], 2) << "</title></circle>\n";
  }
  out << "</svg>\n";
}

/// The n×n link matrix bucketed down to at most 32×32 bins so paper-scale
/// deployments stay readable (and the document stays small); each bin sums
/// the message counts of the links it covers.
void emit_link_heatmap(std::ostringstream& out,
                       const NodeTelemetryLoad& load) {
  constexpr std::size_t kMaxBins = 32;
  const std::size_t n = load.nodes;
  const std::size_t bucket = (n + kMaxBins - 1) / kMaxBins;
  const std::size_t bins = (n + bucket - 1) / bucket;
  std::vector<double> cells(bins * bins, 0.0);
  for (const obs::JsonRecord& rec : load.links) {
    const std::size_t from = static_cast<std::size_t>(rec.u64("from")) / bucket;
    const std::size_t to = static_cast<std::size_t>(rec.u64("to")) / bucket;
    if (from >= bins || to >= bins) continue;
    cells[from * bins + to] += rec.number("messages");
  }
  const auto bin_label = [&](std::size_t b) {
    if (bucket == 1) return std::to_string(b);
    const std::size_t lo = b * bucket;
    const std::size_t hi = std::min(n, lo + bucket) - 1;
    return std::to_string(lo) + "-" + std::to_string(hi);
  };
  charts::HeatmapSpec spec;
  spec.aria_label = "link traffic matrix";
  spec.corner_label = "from \\ to";
  for (std::size_t b = 0; b < bins; ++b) {
    spec.col_labels.push_back(bin_label(b));
    spec.row_labels.push_back(bin_label(b));
  }
  for (std::size_t r = 0; r < bins; ++r) {
    for (std::size_t c = 0; c < bins; ++c) {
      const double v = cells[r * bins + c];
      spec.values.push_back(v);
      spec.present.push_back(v > 0.0 ? 1 : 0);
      spec.cell_text.emplace_back(bins <= 16 && v > 0.0 ? fnum(v, 0) : "");
      spec.titles.push_back("from " + bin_label(r) + " to " + bin_label(c) +
                            " — " + fnum(v, 0) + " message(s)");
    }
  }
  charts::heatmap(out, spec);
}

struct RoundTotals {
  double sent = 0.0;
  double received = 0.0;
  double backlog = 0.0;  ///< max over nodes, not a sum — it is a depth
  double energy = 0.0;
};

}  // namespace

std::string render_node_report_html(const NodeTelemetryLoad& load,
                                    const std::string& title) {
  std::ostringstream out;
  std::ostringstream sub;
  sub << load.nodes << " nodes · " << load.rounds << " rounds";
  if (load.skipped > 0) {
    sub << " · " << load.skipped << " unreadable line(s) skipped";
  }
  if (load.manifest.has_value()) {
    sub << " · " << escape(load.manifest->text("tool", "tgcover")) << " "
        << escape(load.manifest->text("tool_version"));
  }
  html::page_begin(out, title, sub.str());

  out << "<div class=\"tiles\">\n";
  const auto tile = [&](const std::string& value, const std::string& label) {
    out << "<div class=\"tile\"><div class=\"tile-v\">" << value
        << "</div><div class=\"tile-l\">" << escape(label) << "</div></div>\n";
  };
  tile(std::to_string(load.nodes), "nodes");
  tile(std::to_string(load.rounds), "rounds");
  if (load.summary.has_value()) {
    const obs::JsonRecord& s = *load.summary;
    tile(std::to_string(s.u64("sent")), "messages sent");
    tile(std::to_string(s.u64("lost") + s.u64("dropped")), "lost + dropped");
    tile(std::to_string(s.u64("retransmits")), "retransmissions");
    tile(fnum(s.number("total_energy"), 1), "total energy");
    tile(fnum(s.number("max_node_energy"), 1),
         "max node energy (node " +
             std::to_string(s.u64("max_energy_node")) + ")");
    tile(fnum(s.number("traffic_gini"), 3), "traffic Gini");
  }
  out << "</div>\n";

  if (load.manifest.has_value()) {
    out << "<section>\n<h2>Run</h2>\n<table class=\"kv\">\n";
    for (const auto& [key, value] : load.manifest->fields()) {
      if (key.rfind("cfg_", 0) != 0) continue;
      out << "<tr><td>" << escape(key.substr(4)) << "</td><td>"
          << escape(value) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  out << "<section>\n<h2>Energy model</h2>\n<p class=\"note\">first-order "
         "radio charge per node: tx "
      << fnum(load.energy.tx_cost, 3) << " per send, rx "
      << fnum(load.energy.rx_cost, 3) << " per delivery, idle "
      << fnum(load.energy.idle_cost, 3)
      << " per awake round</p>\n</section>\n";

  // ------------------------------------------------------- spatial overlays
  if (load.has_positions && load.positions.size() == load.nodes &&
      load.nodes > 0) {
    const std::vector<double> traffic = per_node(load, "sent", "received");
    const std::vector<double> energy = per_node(load, "energy");
    out << "<section>\n<h2>Spatial hotspots</h2>\n";
    out << "<p class=\"note\">deployment overlay, node opacity ∝ total "
           "traffic (sent + received) — dark clusters are the relay "
           "bottlenecks</p>\n";
    emit_spatial_overlay(out, load, traffic, "traffic");
    out << "<p class=\"note\">the same overlay shaded by accumulated energy "
           "— where the first battery deaths will happen</p>\n";
    emit_spatial_overlay(out, load, energy, "energy");
    out << "</section>\n";
  }

  // ----------------------------------------------------------- link matrix
  if (!load.links.empty() && load.nodes > 0) {
    out << "<section>\n<h2>Link traffic</h2>\n<p class=\"note\">directed "
           "message counts, sender rows × receiver columns";
    if (load.nodes > 32) out << ", bucketed into node-range bins";
    out << "</p>\n";
    emit_link_heatmap(out, load);
    out << "</section>\n";
  }

  // ------------------------------------------------------------- timelines
  if (!load.round_records.empty()) {
    std::map<std::uint64_t, RoundTotals> rounds;
    for (const obs::JsonRecord& rec : load.round_records) {
      RoundTotals& t = rounds[rec.u64("round")];
      t.sent += rec.number("sent");
      t.received += rec.number("received");
      t.backlog = std::max(t.backlog, rec.number("backlog"));
      t.energy += rec.number("energy");
    }
    charts::LineChartSpec traffic;
    traffic.aria_label = "per-round traffic";
    traffic.legend = {{"line1", "sent"}, {"line2", "received"}};
    charts::LineSeries sent_line;
    charts::LineSeries recv_line;
    recv_line.series = "2";
    charts::LineChartSpec backlog;
    backlog.aria_label = "per-round synchronizer backlog";
    backlog.legend = {{"line3", "peak backlog depth"}};
    charts::LineSeries backlog_line;
    backlog_line.series = "3";
    charts::LineChartSpec energy;
    energy.aria_label = "per-round energy";
    energy.legend = {{"line1", "energy spent"}};
    charts::LineSeries energy_line;
    for (const auto& [round, t] : rounds) {
      const std::string at = "round " + std::to_string(round) + " — ";
      traffic.slot_ids.push_back(round);
      sent_line.values.push_back(t.sent);
      sent_line.titles.push_back(at + fnum(t.sent, 0) + " sent");
      recv_line.values.push_back(t.received);
      recv_line.titles.push_back(at + fnum(t.received, 0) + " received");
      backlog.slot_ids.push_back(round);
      backlog_line.values.push_back(t.backlog);
      backlog_line.titles.push_back(at + "depth " + fnum(t.backlog, 0));
      energy.slot_ids.push_back(round);
      energy_line.values.push_back(t.energy);
      energy_line.titles.push_back(at + fnum(t.energy, 2) + " energy");
    }
    traffic.lines = {sent_line, recv_line};
    backlog.lines = {backlog_line};
    energy.lines = {energy_line};
    out << "<section>\n<h2>Convergence</h2>\n"
           "<p class=\"note\">messages per round — round 0 is the k-hop "
           "setup phase, the tail is the protocol draining</p>\n";
    charts::line_chart(out, traffic);
    out << "<p class=\"note\">deepest α-synchronizer inbox backlog observed "
           "in each round (lossy async runs only)</p>\n";
    charts::line_chart(out, backlog);
    out << "<p class=\"note\">energy drawn per round across all nodes "
           "(traffic charges + idle listening)</p>\n";
    charts::line_chart(out, energy);
    out << "</section>\n";
  }

  // ----------------------------------------------------------- node tables
  if (!load.talkers.empty()) {
    out << "<section>\n<h2>Top talkers</h2>\n"
           "<table><tr><th>rank</th><th>node</th><th>traffic</th>"
           "<th>energy</th></tr>\n";
    for (const obs::JsonRecord& rec : load.talkers) {
      out << "<tr><td>" << rec.u64("rank") << "</td><td>" << rec.u64("node")
          << "</td><td>" << rec.u64("traffic") << "</td><td>"
          << fnum(rec.number("energy"), 2) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  if (!load.node_summaries.empty()) {
    constexpr std::size_t kMaxRows = 50;
    std::vector<const obs::JsonRecord*> hottest;
    hottest.reserve(load.node_summaries.size());
    for (const obs::JsonRecord& rec : load.node_summaries) {
      hottest.push_back(&rec);
    }
    std::stable_sort(hottest.begin(), hottest.end(),
                     [](const obs::JsonRecord* a, const obs::JsonRecord* b) {
                       const std::uint64_t ta = a->u64("sent") +
                                                a->u64("received");
                       const std::uint64_t tb = b->u64("sent") +
                                                b->u64("received");
                       if (ta != tb) return ta > tb;
                       return a->u64("node") < b->u64("node");
                     });
    if (hottest.size() > kMaxRows) hottest.resize(kMaxRows);
    out << "<section>\n<h2>Hottest nodes</h2>\n<p class=\"note\">top "
        << hottest.size() << " of " << load.node_summaries.size()
        << " nodes by total traffic</p>\n"
           "<table><tr><th>node</th><th>sent</th><th>received</th>"
           "<th>lost</th><th>dropped</th><th>retransmits</th>"
           "<th>backlog peak</th><th>rounds awake</th><th>energy</th>"
           "</tr>\n";
    for (const obs::JsonRecord* rec : hottest) {
      out << "<tr><td>" << rec->u64("node") << "</td><td>"
          << rec->u64("sent") << "</td><td>" << rec->u64("received")
          << "</td><td>" << rec->u64("lost") << "</td><td>"
          << rec->u64("dropped") << "</td><td>" << rec->u64("retransmits")
          << "</td><td>" << rec->u64("backlog_peak") << "</td><td>"
          << rec->u64("rounds_active") << "</td><td>"
          << fnum(rec->number("energy"), 2) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  html::page_end(out);
  return out.str();
}

}  // namespace tgc::app
