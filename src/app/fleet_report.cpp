#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/fleet.hpp"
#include "tgcover/app/html.hpp"

namespace tgc::app {

FleetSink load_fleet_sink(const std::string& path) {
  FleetSink sink;
  const auto visit = [&](obs::JsonRecord& rec) -> std::string {
    if (!rec.has("run") || !rec.has("status")) return "skipping non-run record";
    sink.runs.push_back(std::move(rec));
    return "";
  };
  obs::JsonlStream stream = obs::read_jsonl_stream(path, visit);
  if (!stream.error.empty()) {
    sink.error = "cannot read fleet sink '" + path + "'";
    return sink;
  }
  sink.manifest = std::move(stream.manifest);
  // A killed campaign leaves a truncated final line: counted, while the
  // completed records are kept.
  sink.skipped = stream.notes.size();
  // Sink order is completion order (thread-count dependent); run-id order is
  // the deterministic one every consumer sees.
  std::stable_sort(sink.runs.begin(), sink.runs.end(),
                   [](const obs::JsonRecord& a, const obs::JsonRecord& b) {
                     return a.u64("run") < b.u64("run");
                   });
  // A --resume pass appends fresh records for re-run cells; the last record
  // in file order supersedes. stable_sort kept file order within each run id,
  // so the group's last element is the authoritative one.
  std::vector<obs::JsonRecord> unique;
  unique.reserve(sink.runs.size());
  for (std::size_t i = 0; i < sink.runs.size(); ++i) {
    if (i + 1 < sink.runs.size() &&
        sink.runs[i].u64("run") == sink.runs[i + 1].u64("run")) {
      continue;
    }
    unique.push_back(std::move(sink.runs[i]));
  }
  sink.runs = std::move(unique);
  return sink;
}

namespace {

using html::escape;
using html::fnum;

/// Facet key: every axis except the two the heatmap spans (nodes × tau).
using FacetKey = std::tuple<std::string, std::string, std::string>;

std::string facet_label(const FacetKey& key) {
  std::string label = "model " + std::get<0>(key);
  label += ", degree " + std::get<1>(key);
  label += ", loss " + std::get<2>(key);
  return label;
}

/// Axis values rendered with the same fixed precision the sink uses, so map
/// keys group identically to the emitted records.
std::string axis_text(const obs::JsonRecord& rec, const std::string& key) {
  return html::axis_label(rec.number(key));
}

struct CellStats {
  std::vector<double> awake;  ///< per-seed awake ratios, seed-ascending
  std::vector<double> cost;   ///< per-seed logical costs, seed-ascending
  double mean_awake() const { return mean(awake); }
  double mean_cost() const { return mean(cost); }
  static double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  }
};

struct Facet {
  // (nodes, tau) -> across-seed stats; keys are numeric for correct order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, CellStats> cells;
  std::set<std::uint64_t> nodes;
  std::set<std::uint64_t> taus;
};

void emit_facet_heatmap(std::ostringstream& out, const Facet& facet,
                        const std::string& what, bool use_cost) {
  charts::HeatmapSpec spec;
  spec.aria_label = what;
  spec.corner_label = "tau";
  for (const std::uint64_t tau : facet.taus) {
    spec.col_labels.push_back("tau " + std::to_string(tau));
  }
  for (const std::uint64_t n : facet.nodes) {
    spec.row_labels.push_back("n " + std::to_string(n));
  }
  for (const std::uint64_t n : facet.nodes) {
    for (const std::uint64_t tau : facet.taus) {
      const auto it = facet.cells.find({n, tau});
      if (it == facet.cells.end()) {
        spec.values.push_back(0.0);
        spec.present.push_back(0);
        spec.cell_text.emplace_back();
        spec.titles.push_back("n=" + std::to_string(n) + " tau=" +
                              std::to_string(tau) + " — no runs");
        continue;
      }
      const CellStats& c = it->second;
      const double v = use_cost ? c.mean_cost() : c.mean_awake();
      spec.values.push_back(v);
      spec.present.push_back(1);
      spec.cell_text.push_back(use_cost ? html::axis_label(v) : fnum(v, 3));
      spec.titles.push_back(
          "n=" + std::to_string(n) + " tau=" + std::to_string(tau) + " — " +
          what + " " + fnum(v, use_cost ? 0 : 4) + " over " +
          std::to_string(c.awake.size()) + " seed(s)");
    }
  }
  charts::heatmap(out, spec);
}

void emit_sparkline_table(std::ostringstream& out, const Facet& facet) {
  out << "<table><tr><th>awake ratio by seed</th>";
  for (const std::uint64_t tau : facet.taus) {
    out << "<th>tau " << tau << "</th>";
  }
  out << "</tr>\n";
  for (const std::uint64_t n : facet.nodes) {
    out << "<tr><td>n " << n << "</td>";
    for (const std::uint64_t tau : facet.taus) {
      const auto it = facet.cells.find({n, tau});
      out << "<td>";
      if (it != facet.cells.end()) {
        std::string title = "n=" + std::to_string(n) + " tau=" +
                            std::to_string(tau) + " awake ratio across " +
                            std::to_string(it->second.awake.size()) +
                            " seed(s):";
        for (const double v : it->second.awake) title += " " + fnum(v, 3);
        out << charts::sparkline(it->second.awake, title);
      }
      out << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

}  // namespace

std::string render_fleet_report_html(const FleetSink& sink,
                                     const std::string& title) {
  std::vector<const obs::JsonRecord*> ok;
  std::vector<const obs::JsonRecord*> failed;
  for (const obs::JsonRecord& rec : sink.runs) {
    (rec.text("status") == "ok" ? ok : failed).push_back(&rec);
  }

  std::ostringstream out;
  std::ostringstream sub;
  sub << sink.runs.size() << " runs";
  if (!failed.empty()) sub << " · " << failed.size() << " failed";
  if (sink.skipped > 0) {
    sub << " · " << sink.skipped << " unreadable line(s) skipped";
  }
  if (sink.manifest.has_value()) {
    sub << " · " << escape(sink.manifest->text("tool", "tgcover")) << " "
        << escape(sink.manifest->text("tool_version"));
  }
  html::page_begin(out, title, sub.str());

  out << "<div class=\"tiles\">\n";
  const auto tile = [&](const std::string& value, const std::string& label) {
    out << "<div class=\"tile\"><div class=\"tile-v\">" << value
        << "</div><div class=\"tile-l\">" << escape(label) << "</div></div>\n";
  };
  tile(std::to_string(sink.runs.size()), "campaign runs");
  tile(std::to_string(failed.size()), "failed");
  std::uint64_t total_cost = 0;
  std::uint64_t total_messages = 0;
  for (const obs::JsonRecord* rec : ok) {
    total_cost += rec->u64("logical_cost");
    total_messages += rec->u64("messages");
  }
  tile(std::to_string(total_cost), "total logical cost");
  tile(std::to_string(total_messages), "total messages");
  out << "</div>\n";

  if (sink.manifest.has_value()) {
    out << "<section>\n<h2>Campaign</h2>\n<table class=\"kv\">\n";
    for (const auto& [key, value] : sink.manifest->fields()) {
      if (key.rfind("cfg_", 0) != 0) continue;
      out << "<tr><td>" << escape(key.substr(4)) << "</td><td>"
          << escape(value) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  // ------------------------------------------------------------- facets
  std::map<FacetKey, Facet> facets;
  for (const obs::JsonRecord* rec : ok) {
    const FacetKey key{rec->text("model"), axis_text(*rec, "degree"),
                       axis_text(*rec, "loss")};
    Facet& f = facets[key];
    const std::uint64_t n = rec->u64("nodes");
    const std::uint64_t tau = rec->u64("tau");
    f.nodes.insert(n);
    f.taus.insert(tau);
    CellStats& cell = f.cells[{n, tau}];
    // Records arrive run-id sorted; within a cell that is seed-axis order,
    // so the sparklines read left-to-right across the seed list.
    cell.awake.push_back(rec->number("awake_ratio"));
    cell.cost.push_back(rec->number("logical_cost"));
  }
  for (const auto& [key, facet] : facets) {
    out << "<section>\n<h2>" << escape(facet_label(key)) << "</h2>\n";
    out << "<p class=\"note\">mean awake-set ratio across seeds (lower is a "
           "smaller duty-cycle)</p>\n";
    emit_facet_heatmap(out, facet, "mean awake ratio", false);
    out << "<p class=\"note\">mean logical cost across seeds "
           "(machine-independent work units)</p>\n";
    emit_facet_heatmap(out, facet, "mean logical cost", true);
    bool many_seeds = false;
    for (const auto& [cell_key, cell] : facet.cells) {
      if (cell.awake.size() > 1) many_seeds = true;
    }
    if (many_seeds) emit_sparkline_table(out, facet);
    out << "</section>\n";
  }

  if (!failed.empty()) {
    out << "<section>\n<h2>Failed runs</h2>\n"
           "<table><tr><th>run</th><th>model</th><th>nodes</th>"
           "<th>degree</th><th>tau</th><th>loss</th><th>seed</th>"
           "<th>error</th></tr>\n";
    for (const obs::JsonRecord* rec : failed) {
      out << "<tr><td>" << rec->u64("run") << "</td><td>"
          << escape(rec->text("model")) << "</td><td>" << rec->u64("nodes")
          << "</td><td>" << axis_text(*rec, "degree") << "</td><td>"
          << rec->u64("tau") << "</td><td>" << axis_text(*rec, "loss")
          << "</td><td>" << rec->u64("seed") << "</td><td class=\"bad\">"
          << escape(rec->text("error")) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  out << "<section>\n<h2>Runs</h2>\n"
         "<table><tr><th>run</th><th>model</th><th>nodes</th><th>degree</th>"
         "<th>tau</th><th>loss</th><th>seed</th><th>awake</th>"
         "<th>ratio</th><th>rounds</th><th>cost</th><th>messages</th>"
         "<th>digest</th></tr>\n";
  for (const obs::JsonRecord& rec : sink.runs) {
    out << "<tr><td>" << rec.u64("run") << "</td><td>"
        << escape(rec.text("model")) << "</td><td>" << rec.u64("nodes")
        << "</td><td>" << axis_text(rec, "degree") << "</td><td>"
        << rec.u64("tau") << "</td><td>" << axis_text(rec, "loss")
        << "</td><td>" << rec.u64("seed") << "</td>";
    if (rec.text("status") == "ok") {
      out << "<td>" << rec.u64("survivors") << "</td><td>"
          << fnum(rec.number("awake_ratio"), 3) << "</td><td>"
          << rec.u64("rounds") << "</td><td>" << rec.u64("logical_cost")
          << "</td><td>" << rec.u64("messages") << "</td><td>"
          << escape(rec.text("schedule_digest")) << "</td></tr>\n";
    } else {
      out << "<td class=\"bad\" colspan=\"6\">failed: "
          << escape(rec.text("error")) << "</td></tr>\n";
    }
  }
  out << "</table>\n</section>\n";

  html::page_end(out);
  return out.str();
}

}  // namespace tgc::app
