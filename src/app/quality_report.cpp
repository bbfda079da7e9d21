#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"
#include "tgcover/app/quality_report.hpp"

namespace tgc::app {

QualityLoad load_quality(const std::string& path) {
  QualityLoad load;
  const auto visit = [&](obs::JsonRecord& rec) -> std::string {
    const std::string type = rec.text("type");
    if (type == "quality_header") {
      load.header = std::move(rec);
    } else if (type == "quality_round") {
      load.rounds.push_back(std::move(rec));
    } else if (type == "bound_violation") {
      load.violations.push_back(std::move(rec));
    } else if (type == "quality_summary") {
      load.summary = std::move(rec);
    } else {
      return "skipping unknown record type '" + type + "'";
    }
    return "";
  };
  obs::JsonlStream stream = obs::read_jsonl_stream(path, visit);
  if (!stream.error.empty()) {
    load.error = "cannot read quality stream '" + path + "'";
    return load;
  }
  load.manifest = std::move(stream.manifest);
  load.skipped = stream.notes.size();
  if (!load.header.has_value()) {
    load.error = "no quality_header line in '" + path +
                 "' — not a --quality-out stream";
    return load;
  }
  // The writer emits rounds in order already; sorting here makes the loader
  // robust to concatenated or hand-edited streams.
  const auto by_round = [](const obs::JsonRecord& a,
                           const obs::JsonRecord& b) {
    return a.u64("round") < b.u64("round");
  };
  std::stable_sort(load.rounds.begin(), load.rounds.end(), by_round);
  std::stable_sort(load.violations.begin(), load.violations.end(), by_round);
  return load;
}

namespace {

using html::escape;
using html::fnum;

std::string round_title(std::uint64_t round) {
  return "round " + std::to_string(round) + " — ";
}

void emit_coverage_timeline(std::ostringstream& out, const QualityLoad& load) {
  charts::LineChartSpec cov;
  cov.aria_label = "per-round coverage fraction";
  cov.legend = {{"line1", "coverage fraction"}};
  charts::LineSeries cov_line;
  charts::LineChartSpec conn;
  conn.aria_label = "per-round awake-set components";
  conn.legend = {{"line3", "awake components"}};
  charts::LineSeries conn_line;
  conn_line.series = "3";
  for (const obs::JsonRecord& rec : load.rounds) {
    const std::uint64_t round = rec.u64("round");
    cov.slot_ids.push_back(round);
    cov_line.values.push_back(rec.number("coverage_fraction"));
    cov_line.titles.push_back(round_title(round) +
                              fnum(rec.number("coverage_fraction"), 4) +
                              " covered");
    conn.slot_ids.push_back(round);
    conn_line.values.push_back(rec.number("components"));
    conn_line.titles.push_back(round_title(round) +
                               fnum(rec.number("components"), 0) +
                               " component(s)");
  }
  cov.lines = {cov_line};
  conn.lines = {conn_line};
  out << "<p class=\"note\">fraction of target-area cells covered by the "
         "awake set — the schedule's geometric SLO</p>\n";
  charts::line_chart(out, cov);
  out << "<p class=\"note\">connected components of the awake-induced "
         "subgraph (1 = the survivors still relay for each other)</p>\n";
  charts::line_chart(out, conn);
}

void emit_hole_timeline(std::ostringstream& out, const QualityLoad& load) {
  const bool bounded = load.bound_finite();
  const double bound =
      bounded ? load.header->number("bound") : 0.0;
  charts::LineChartSpec holes;
  holes.aria_label = "per-round largest hole diameter vs τ-confine bound";
  holes.legend = {{"line1", "largest hole diameter"}};
  if (bounded) holes.legend.push_back({"line2", "Proposition 1 bound"});
  charts::LineSeries hole_line;
  charts::LineSeries bound_line;
  bound_line.series = "2";
  charts::LineChartSpec margin;
  margin.aria_label = "per-round bound margin";
  margin.legend = {{"line3", "bound − hole diameter"}};
  charts::LineSeries margin_line;
  margin_line.series = "3";
  for (const obs::JsonRecord& rec : load.rounds) {
    const std::uint64_t round = rec.u64("round");
    const double d = rec.number("max_hole_diameter");
    holes.slot_ids.push_back(round);
    hole_line.values.push_back(d);
    hole_line.titles.push_back(round_title(round) + "hole " + fnum(d, 3));
    if (bounded) {
      bound_line.values.push_back(bound);
      bound_line.titles.push_back(round_title(round) + "bound " +
                                  fnum(bound, 3));
      margin.slot_ids.push_back(round);
      margin_line.values.push_back(rec.number("bound_margin"));
      margin_line.titles.push_back(round_title(round) + "margin " +
                                   fnum(rec.number("bound_margin"), 3));
    }
  }
  holes.lines = {hole_line};
  if (bounded) holes.lines.push_back(bound_line);
  out << "<p class=\"note\">largest coverage-hole diameter each sampled "
         "round";
  if (bounded) {
    out << " against the (τ−2)·Rc bound of Proposition 1 — Fig. 6's claim as "
           "a continuously checked invariant";
  }
  out << "</p>\n";
  charts::line_chart(out, holes);
  if (bounded) {
    margin.lines = {margin_line};
    out << "<p class=\"note\">remaining slack under the bound — a dip toward "
           "zero is the early warning, a negative value is a violation</p>\n";
    charts::line_chart(out, margin);
  }
}

void emit_k_coverage_heatmap(std::ostringstream& out,
                             const QualityLoad& load) {
  std::size_t buckets = 0;
  for (const obs::JsonRecord& rec : load.rounds) {
    buckets = std::max(buckets, static_cast<std::size_t>(rec.u64("k_buckets")));
  }
  if (buckets == 0) return;
  const auto bucket_label = [&](std::size_t k) {
    if (k + 1 == buckets) return "k≥" + std::to_string(k);
    return "k=" + std::to_string(k);
  };
  charts::HeatmapSpec spec;
  spec.aria_label = "k-coverage histogram per round";
  spec.corner_label = "k \\ round";
  for (const obs::JsonRecord& rec : load.rounds) {
    spec.col_labels.push_back(std::to_string(rec.u64("round")));
  }
  for (std::size_t k = 0; k < buckets; ++k) {
    spec.row_labels.push_back(bucket_label(k));
  }
  for (std::size_t k = 0; k < buckets; ++k) {
    for (const obs::JsonRecord& rec : load.rounds) {
      const double v = rec.number("k" + std::to_string(k));
      spec.values.push_back(v);
      spec.present.push_back(v > 0.0 ? 1 : 0);
      spec.cell_text.emplace_back(load.rounds.size() <= 16 && v > 0.0
                                      ? fnum(v, 0)
                                      : "");
      spec.titles.push_back("round " + std::to_string(rec.u64("round")) +
                            ", " + bucket_label(k) + " — " + fnum(v, 0) +
                            " cell(s)");
    }
  }
  out << "<p class=\"note\">target-area cells by covering multiplicity — "
         "mass drains from high k toward k=1 as redundant sensors go to "
         "sleep</p>\n";
  charts::heatmap(out, spec);
}

}  // namespace

void append_quality_sections(std::ostringstream& out,
                             const QualityLoad& load) {
  if (!load.rounds.empty()) {
    out << "<section>\n<h2>Coverage</h2>\n";
    emit_coverage_timeline(out, load);
    out << "</section>\n";
    out << "<section>\n<h2>Holes vs bound</h2>\n";
    emit_hole_timeline(out, load);
    out << "</section>\n";
    out << "<section>\n<h2>k-coverage</h2>\n";
    emit_k_coverage_heatmap(out, load);
    out << "</section>\n";
  }
  if (!load.violations.empty()) {
    out << "<section>\n<h2>Bound violations</h2>\n<p class=\"note\">rounds "
           "whose largest hole exceeded the Proposition 1 bound — the "
           "schedule gave up more coverage than the paper's invariant "
           "allows</p>\n"
           "<table><tr><th>round</th><th>hole diameter</th><th>bound</th>"
           "<th>excess</th></tr>\n";
    for (const obs::JsonRecord& rec : load.violations) {
      out << "<tr><td>" << rec.u64("round") << "</td><td>"
          << fnum(rec.number("max_hole_diameter"), 3) << "</td><td>"
          << fnum(rec.number("bound"), 3) << "</td><td>"
          << fnum(rec.number("excess"), 3) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }
}

std::string render_quality_report_html(const QualityLoad& load,
                                       const std::string& title) {
  std::ostringstream out;
  std::ostringstream sub;
  sub << load.rounds.size() << " sampled round(s)";
  if (load.header.has_value()) {
    sub << " · τ=" << load.header->u64("tau") << " · rs="
        << fnum(load.header->number("rs"), 3) << " · γ="
        << fnum(load.header->number("gamma"), 3);
  }
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
  if (load.summary.has_value()) {
    const obs::JsonRecord& s = *load.summary;
    tile(std::to_string(s.u64("rounds_sampled")), "rounds sampled");
    tile(fnum(s.number("min_coverage_fraction"), 4), "min coverage fraction");
    tile(fnum(s.number("max_hole_diameter"), 3), "worst hole diameter");
    if (load.bound_finite()) {
      tile(fnum(s.number("bound_margin"), 3), "min bound margin");
      tile(std::to_string(s.u64("violations")), "bound violations");
    }
    tile(std::to_string(s.u64("max_components")), "max awake components");
    tile(std::to_string(s.u64("final_certifiable_tau")),
         "final certifiable τ");
    tile(fnum(s.number("final_redundancy"), 3), "final redundancy");
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

  append_quality_sections(out, load);

  html::page_end(out);
  return out.str();
}

}  // namespace tgc::app
