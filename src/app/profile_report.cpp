#include "tgcover/app/profile_report.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "tgcover/app/charts.hpp"
#include "tgcover/app/html.hpp"

namespace tgc::app {

namespace {

using html::escape;
using html::fnum;

/// Reverse of prof_kind_name; false on an unknown kind token (newer writer).
bool parse_kind(const std::string& name, obs::ProfKind& kind) {
  for (std::size_t k = 0; k < obs::kNumProfKinds; ++k) {
    if (name == obs::prof_kind_name(static_cast<obs::ProfKind>(k))) {
      kind = static_cast<obs::ProfKind>(k);
      return true;
    }
  }
  return false;
}

/// Reverse of cost_phase_name; unknown tokens fold into kOther rather than
/// failing, so a stream from a build with extra phases still loads.
std::uint8_t parse_phase(const std::string& name) {
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    if (name == obs::cost_phase_name(static_cast<obs::CostPhase>(p))) {
      return static_cast<std::uint8_t>(p);
    }
  }
  return static_cast<std::uint8_t>(obs::CostPhase::kOther);
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

ProfileLoad load_profile(const std::string& path) {
  ProfileLoad load;
  bool header_seen = false;
  const auto visit = [&](const obs::JsonRecord& rec) -> std::string {
    const std::string type = rec.text("type");
    if (type == "profile_header") {
      header_seen = true;
      load.data.wall_ns = rec.u64("wall_ns");
      load.data.parallel_ns = rec.u64("parallel_ns");
      load.data.forks = rec.u64("forks");
      load.data.rounds = rec.u64("rounds");
      load.data.off_lane_events = rec.u64("off_lane_events");
      load.data.hardware_concurrency =
          static_cast<unsigned>(rec.u64("hardware_concurrency"));
      load.data.ring_capacity =
          static_cast<std::size_t>(rec.u64("ring_capacity"));
      load.data.workers.resize(
          static_cast<std::size_t>(rec.u64("workers")));
    } else if (type == "event") {
      const std::size_t w = static_cast<std::size_t>(rec.u64("worker"));
      obs::ProfKind kind;
      if (w >= load.data.workers.size() ||
          !parse_kind(rec.text("kind"), kind)) {
        return "skipping event of unknown worker or kind";
      }
      obs::ProfileEvent ev;
      ev.start_ns = rec.u64("t_ns");
      ev.dur_ns = rec.u64("dur_ns");
      ev.value = rec.u64("value");
      ev.phase = parse_phase(rec.text("phase"));
      ev.kind = kind;
      load.data.workers[w].events.push_back(ev);
    } else if (type == "worker_summary") {
      const std::size_t w = static_cast<std::size_t>(rec.u64("worker"));
      if (w >= load.data.workers.size()) {
        return "skipping summary of unknown worker";
      }
      obs::WorkerProfile& wp = load.data.workers[w];
      wp.tasks = rec.u64("tasks");
      wp.items = rec.u64("items");
      wp.busy_ns = rec.u64("busy_ns");
      wp.idle_ns = rec.u64("idle_ns");
      wp.barrier_ns = rec.u64("barrier_ns");
      wp.dropped = rec.u64("dropped");
      for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
        const std::string phase(
            obs::cost_phase_name(static_cast<obs::CostPhase>(p)));
        wp.phase_tasks[p] = rec.u64("tasks_" + phase);
        wp.phase_items[p] = rec.u64("items_" + phase);
        wp.phase_busy_ns[p] = rec.u64("busy_ns_" + phase);
      }
    } else if (type == "mem_sample") {
      obs::MemorySample sample;
      sample.t_ns = rec.u64("t_ns");
      sample.peak_rss_bytes = rec.u64("peak_rss_bytes");
      load.data.memory.samples.push_back(sample);
    } else if (type == "memory_summary") {
      obs::MemoryTelemetry& m = load.data.memory;
      m.peak_rss_begin_bytes = rec.u64("peak_rss_begin_bytes");
      m.peak_rss_end_bytes = rec.u64("peak_rss_end_bytes");
    } else if (type != "phase_summary" && type != "profile_summary") {
      // phase/profile summaries are recomputed from the worker rows; any
      // other record type is from a future writer.
      return "skipping unknown record type '" + type + "'";
    }
    return "";
  };
  obs::JsonlStream stream = obs::read_jsonl_stream(path, visit);
  if (!stream.error.empty()) {
    load.error = "cannot read profile '" + path + "'";
    return load;
  }
  load.manifest = std::move(stream.manifest);
  load.skipped = stream.notes.size();
  if (!header_seen) {
    load.error = "no profile_header record in '" + path +
                 "' — produce one with --profile-out";
  }
  return load;
}

namespace {

/// Per-worker busy fraction over fixed wall-time buckets, from the task
/// events (clipped to bucket boundaries). Truncated rings understate early
/// buckets — the caller prints a truncation note in that case.
charts::HeatmapSpec timeline_heatmap(const obs::ProfileData& data,
                                     std::size_t buckets) {
  charts::HeatmapSpec spec;
  spec.aria_label = "per-worker busy-fraction timeline";
  spec.corner_label = "wall time \xE2\x86\x92";
  const std::uint64_t wall = std::max<std::uint64_t>(1, data.wall_ns);
  const double bucket_ns =
      static_cast<double>(wall) / static_cast<double>(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    // Sparse labels: every eighth bucket, as the time it starts at.
    spec.col_labels.push_back(
        b % 8 == 0 ? html::axis_label(ms(static_cast<std::uint64_t>(
                         bucket_ns * static_cast<double>(b)))) +
                         "ms"
                   : std::string());
  }
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    spec.row_labels.push_back("w" + std::to_string(w));
    std::vector<double> busy(buckets, 0.0);
    for (const obs::ProfileEvent& ev : data.workers[w].events) {
      if (ev.kind != obs::ProfKind::kTask || ev.dur_ns == 0) continue;
      const double t0 = static_cast<double>(ev.start_ns);
      const double t1 = static_cast<double>(ev.start_ns + ev.dur_ns);
      const std::size_t b0 = std::min(
          buckets - 1, static_cast<std::size_t>(t0 / bucket_ns));
      const std::size_t b1 = std::min(
          buckets - 1, static_cast<std::size_t>(t1 / bucket_ns));
      for (std::size_t b = b0; b <= b1; ++b) {
        const double lo = bucket_ns * static_cast<double>(b);
        const double hi = lo + bucket_ns;
        const double overlap = std::min(t1, hi) - std::max(t0, lo);
        if (overlap > 0) busy[b] += overlap;
      }
    }
    for (std::size_t b = 0; b < buckets; ++b) {
      const double frac = std::min(1.0, busy[b] / bucket_ns);
      spec.values.push_back(frac);
      spec.present.push_back(1);
      spec.cell_text.emplace_back();
      spec.titles.push_back(
          "worker " + std::to_string(w) + ", " +
          html::axis_label(ms(static_cast<std::uint64_t>(
              bucket_ns * static_cast<double>(b)))) +
          "-" +
          html::axis_label(ms(static_cast<std::uint64_t>(
              bucket_ns * static_cast<double>(b + 1)))) +
          " ms — busy " + fnum(frac * 100.0, 1) + "%");
    }
  }
  return spec;
}

/// Phase palette: the chart stylesheet's six series classes, one per
/// CostPhase, in enum order so every dashboard colors a phase the same way.
std::string phase_cls(std::size_t p) {
  return "s" + std::to_string(p % 6 + 1);
}

}  // namespace

std::string render_profile_report_html(const ProfileLoad& load,
                                       const std::string& title) {
  const obs::ProfileData& data = load.data;
  std::ostringstream out;
  std::ostringstream sub;
  sub << data.workers.size() << " workers · hw concurrency "
      << data.hardware_concurrency << " · wall " << fnum(ms(data.wall_ns), 1)
      << " ms";
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
  tile(std::to_string(data.workers.size()), "pool workers");
  tile(fnum(data.utilization() * 100.0, 1) + "%", "mean utilization");
  tile(fnum(data.serial_fraction() * 100.0, 1) + "%", "serial fraction");
  tile(fnum(data.predicted_speedup(data.hardware_concurrency != 0
                                       ? data.hardware_concurrency
                                       : 1),
            2),
       "Amdahl bound @ hw");
  tile(std::to_string(data.rounds), "rounds");
  tile(std::to_string(data.forks), "fork-join regions");
  tile(fnum(mib(data.memory.peak_rss_end_bytes), 1) + " MiB", "peak RSS");
  out << "</div>\n";

  if (data.truncated() || data.off_lane_events > 0) {
    out << "<p class=\"note\">";
    if (data.truncated()) {
      std::uint64_t dropped = 0;
      for (const obs::WorkerProfile& w : data.workers) dropped += w.dropped;
      out << "timeline truncated: " << dropped
          << " oldest event(s) overwrote the per-worker rings (capacity "
          << data.ring_capacity
          << " — raise TGC_PROFILE_RING to keep more); the summary tables "
             "below stay exact. ";
    }
    if (data.off_lane_events > 0) {
      out << data.off_lane_events
          << " emission(s) arrived from unregistered threads and were "
             "dropped.";
    }
    out << "</p>\n";
  }

  if (load.manifest.has_value()) {
    out << "<section>\n<h2>Run</h2>\n<table class=\"kv\">\n";
    for (const auto& [key, value] : load.manifest->fields()) {
      if (key.rfind("cfg_", 0) != 0) continue;
      out << "<tr><td>" << escape(key.substr(4)) << "</td><td>"
          << escape(value) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  // --------------------------------------------------- worker timeline
  out << "<section>\n<h2>Worker timeline</h2>\n"
         "<p class=\"note\">busy fraction per worker over wall time "
         "(task execution only; gaps are dequeue idle or barrier stall)"
         "</p>\n";
  charts::heatmap(out, timeline_heatmap(data, 48));
  out << "</section>\n";

  // --------------------------------------------------- phase breakdown
  out << "<section>\n<h2>Phase breakdown</h2>\n"
         "<p class=\"note\">busy milliseconds per worker, stacked by "
         "protocol phase</p>\n";
  {
    charts::Legend legend;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      legend.emplace_back(
          phase_cls(p),
          std::string(obs::cost_phase_name(static_cast<obs::CostPhase>(p))));
    }
    std::vector<charts::BarSlot> slots;
    slots.reserve(data.workers.size());
    for (std::size_t w = 0; w < data.workers.size(); ++w) {
      charts::BarSlot slot;
      slot.id = w;
      for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
        const std::uint64_t busy = data.workers[w].phase_busy_ns[p];
        if (busy == 0) continue;
        const std::string phase(
            obs::cost_phase_name(static_cast<obs::CostPhase>(p)));
        charts::Seg seg;
        seg.cls = phase_cls(p);
        seg.value = ms(busy);
        seg.title = "worker " + std::to_string(w) + " — " + phase + " " +
                    fnum(ms(busy), 2) + " ms (" +
                    std::to_string(data.workers[w].phase_items[p]) +
                    " items)";
        slot.segs.push_back(std::move(seg));
      }
      slots.push_back(std::move(slot));
    }
    charts::stacked_bars(out, "busy ms per worker by phase", legend, slots,
                         "worker");
  }
  out << "<table><tr><th>worker</th><th>tasks</th><th>items</th>"
         "<th>busy ms</th><th>idle ms</th><th>barrier ms</th>"
         "<th>dropped</th></tr>\n";
  for (std::size_t w = 0; w < data.workers.size(); ++w) {
    const obs::WorkerProfile& wp = data.workers[w];
    out << "<tr><td>w" << w << "</td><td>" << wp.tasks << "</td><td>"
        << wp.items << "</td><td>" << fnum(ms(wp.busy_ns), 2) << "</td><td>"
        << fnum(ms(wp.idle_ns), 2) << "</td><td>" << fnum(ms(wp.barrier_ns), 2)
        << "</td><td>" << wp.dropped << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";

  // ----------------------------------------------------- barrier stalls
  out << "<section>\n<h2>Barrier stalls</h2>\n"
         "<p class=\"note\">time the fork-join caller spent waiting for the "
         "last worker to drain, by phase (load imbalance shows up here)"
         "</p>\n";
  {
    out << "<table><tr><th>phase</th><th>stalls</th><th>total ms</th>"
           "<th>mean ms</th><th>max ms</th></tr>\n";
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      std::uint64_t count = 0;
      std::uint64_t total = 0;
      std::uint64_t max = 0;
      for (const obs::WorkerProfile& w : data.workers) {
        for (const obs::ProfileEvent& ev : w.events) {
          if (ev.kind != obs::ProfKind::kBarrier ||
              ev.phase != static_cast<std::uint8_t>(p)) {
            continue;
          }
          ++count;
          total += ev.dur_ns;
          max = std::max(max, ev.dur_ns);
        }
      }
      if (count == 0) continue;
      out << "<tr><td>"
          << obs::cost_phase_name(static_cast<obs::CostPhase>(p))
          << "</td><td>" << count << "</td><td>" << fnum(ms(total), 3)
          << "</td><td>"
          << fnum(ms(total) / static_cast<double>(count), 3) << "</td><td>"
          << fnum(ms(max), 3) << "</td></tr>\n";
    }
    out << "</table>\n";
    if (data.truncated()) {
      out << "<p class=\"note\">ring truncation dropped the oldest events; "
             "stall counts above cover the retained window only</p>\n";
    }
  }
  out << "</section>\n";

  // -------------------------------------------------- parallel efficiency
  out << "<section>\n<h2>Parallel efficiency</h2>\n"
         "<p class=\"note\">Amdahl projection from the measured serial "
         "fraction (wall time outside any fork-join region); verify the real "
         "curve with `tgcover scale`</p>\n"
         "<table><tr><th>threads</th><th>predicted speedup</th>"
         "<th>predicted efficiency</th></tr>\n";
  {
    std::vector<unsigned> ladder = {2, 4, 8};
    if (data.hardware_concurrency > 1) {
      ladder.push_back(data.hardware_concurrency);
    }
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
    for (const unsigned n : ladder) {
      const double sp = data.predicted_speedup(n);
      out << "<tr><td>" << n
          << (n == data.hardware_concurrency ? " (hw)" : "") << "</td><td>"
          << fnum(sp, 2) << "</td><td>"
          << fnum(sp / static_cast<double>(n) * 100.0, 1)
          << "%</td></tr>\n";
    }
  }
  out << "</table>\n</section>\n";

  // --------------------------------------------------------------- memory
  out << "<section>\n<h2>Memory</h2>\n";
  if (!data.memory.samples.empty()) {
    out << "<p class=\"note\">peak RSS (monotone high-water) at each "
           "sampled boundary</p>\n";
    charts::LineChartSpec spec;
    spec.aria_label = "memory over sampled boundaries";
    spec.legend = {{"line1", "peak RSS MiB"}};
    spec.axis_name = "sample";
    charts::LineSeries rss;
    rss.series = "1";
    for (std::size_t i = 0; i < data.memory.samples.size(); ++i) {
      const obs::MemorySample& s = data.memory.samples[i];
      spec.slot_ids.push_back(i + 1);
      rss.values.push_back(mib(s.peak_rss_bytes));
      rss.titles.push_back("sample " + std::to_string(i + 1) + " @ " +
                           fnum(ms(s.t_ns), 1) + " ms — peak RSS " +
                           fnum(mib(s.peak_rss_bytes), 1) + " MiB");
    }
    spec.lines.push_back(std::move(rss));
    charts::line_chart(out, spec);
  }
  out << "<table class=\"kv\">\n"
      << "<tr><td>peak RSS at begin</td><td>"
      << fnum(mib(data.memory.peak_rss_begin_bytes), 1) << " MiB</td></tr>\n"
      << "<tr><td>peak RSS at end</td><td>"
      << fnum(mib(data.memory.peak_rss_end_bytes), 1) << " MiB</td></tr>\n"
      << "</table>\n</section>\n";

  html::page_end(out);
  return out.str();
}

}  // namespace tgc::app
