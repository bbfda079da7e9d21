#include "tgcover/sim/engine.hpp"

#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/obs/trace.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::sim {

namespace {

/// RoundEngine's Mailer: counts traffic and enqueues into next-round inboxes.
class EngineMailer final : public Mailer {
 public:
  EngineMailer(const graph::Graph& g, const std::vector<bool>& active,
               std::vector<std::vector<Message>>& next_inbox,
               TrafficStats& stats, graph::VertexId from)
      : g_(&g),
        active_(&active),
        next_inbox_(&next_inbox),
        stats_(&stats),
        from_(from) {}

  void send(graph::VertexId to, std::uint32_t type,
            std::vector<std::uint32_t> payload) override {
    TGC_CHECK_MSG(g_->has_edge(from_, to),
                  "node " << from_ << " cannot send to non-neighbor " << to);
    ++stats_->messages;
    stats_->payload_words += payload.size();
    obs::add(obs::CounterId::kMessages, 1);
    obs::add(obs::CounterId::kPayloadWords, payload.size());
    obs::NodeTelemetry* const nt = obs::bound_observers().nodes;
    if (nt != nullptr) nt->on_send(from_, to, payload.size());
    std::uint64_t trace_id = 0;
    if (obs::trace_active()) {
      // The logical clock of the synchronous engine is the round counter
      // (incremented at run_round entry, so this is the current round).
      const auto round = static_cast<double>(stats_->rounds);
      trace_id = obs::trace_emit(
          obs::TraceKind::kSend, from_, to, type,
          static_cast<std::uint32_t>(payload.size()), round);
      if (!(*active_)[to]) {
        obs::trace_emit(obs::TraceKind::kDrop, to, from_, type, 0, round,
                        trace_id);
      }
    }
    if (!(*active_)[to]) {  // transmitted into the void
      if (nt != nullptr) nt->on_drop(from_, to);
      return;
    }
    Message msg{from_, to, type, std::move(payload)};
    msg.trace_id = trace_id;
    (*next_inbox_)[to].push_back(std::move(msg));
  }

  void broadcast(std::uint32_t type,
                 const std::vector<std::uint32_t>& payload) override {
    for (const graph::VertexId nbr : g_->neighbors(from_)) {
      send(nbr, type, payload);
    }
  }

 private:
  const graph::Graph* g_;
  const std::vector<bool>* active_;
  std::vector<std::vector<Message>>* next_inbox_;
  TrafficStats* stats_;
  graph::VertexId from_;
};

}  // namespace

RoundEngine::RoundEngine(const graph::Graph& g)
    : g_(&g),
      active_(g.num_vertices(), true),
      inbox_(g.num_vertices()),
      next_inbox_(g.num_vertices()) {}

void RoundEngine::deactivate(graph::VertexId v) {
  TGC_CHECK(v < active_.size());
  active_[v] = false;
  if (obs::NodeTelemetry* const nt = obs::bound_observers().nodes) {
    // Queued deliveries die with the radio: charge them to their senders as
    // drops so the conservation ledger (sent = received + lost + dropped +
    // undelivered) stays exact across mid-protocol deactivation.
    for (const Message& m : inbox_[v]) nt->on_drop(m.from, v);
    for (const Message& m : next_inbox_[v]) nt->on_drop(m.from, v);
  }
  inbox_[v].clear();
  next_inbox_[v].clear();
  if (obs::trace_active()) {
    obs::trace_emit(obs::TraceKind::kDeactivate, v, obs::kTraceNoNode, 0, 0,
                    static_cast<double>(stats_.rounds));
  }
}

void RoundEngine::run_round(const Handler& handler) {
  ++stats_.rounds;
  const bool traced = obs::trace_active();
  const auto round32 = static_cast<std::uint32_t>(stats_.rounds);
  const auto round = static_cast<double>(stats_.rounds);
  if (traced) {
    obs::trace_emit(obs::TraceKind::kEngineRound, obs::kTraceNoNode,
                    obs::kTraceNoNode, 0, round32, round);
  }
  obs::NodeTelemetry* const nt = obs::bound_observers().nodes;
  for (graph::VertexId v = 0; v < g_->num_vertices(); ++v) {
    if (!active_[v]) continue;
    EngineMailer mailer(*g_, active_, next_inbox_, stats_, v);
    if (nt != nullptr) {
      for (const Message& m : inbox_[v]) {
        nt->on_deliver(v, m.from, m.payload.size());
      }
    }
    if (traced) {
      obs::trace_emit(obs::TraceKind::kHandlerBegin, v, obs::kTraceNoNode, 0,
                      round32, round);
      // Deliveries land inside the handler span so Perfetto binds the flow
      // arrows to the enclosing slice.
      for (const Message& m : inbox_[v]) {
        obs::trace_emit(obs::TraceKind::kDeliver, v, m.from, m.type,
                        static_cast<std::uint32_t>(m.payload.size()), round,
                        m.trace_id);
      }
    }
    handler(v, std::span<const Message>(inbox_[v]), mailer);
    if (traced) {
      obs::trace_emit(obs::TraceKind::kHandlerEnd, v, obs::kTraceNoNode, 0,
                      round32, round);
    }
    inbox_[v].clear();
  }
  std::swap(inbox_, next_inbox_);
  for (auto& box : next_inbox_) box.clear();
}

}  // namespace tgc::sim
