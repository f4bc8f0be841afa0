#include "core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/spans.h"

namespace capman::core {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::size_t transfer_bucket(workload::Syscall kind,
                            battery::BatterySelection battery) {
  return static_cast<std::size_t>(kind) * 2 +
         (battery == battery::BatterySelection::kLittle ? 1 : 0);
}
}  // namespace

void DecisionStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("scheduler/decisions_exact").add(exact);
  registry.counter("scheduler/decisions_transferred").add(transferred);
  registry.counter("scheduler/decisions_fallback").add(fallback);
  registry.counter("scheduler/decisions_explored").add(explored);
}

OnlineScheduler::OnlineScheduler(const CapmanConfig& config,
                                 std::uint64_t seed)
    : config_(config),
      rng_(seed),
      // Without budget learning only the level-kFull plane is reachable,
      // so the MDP keeps per-(state, action) slots for just that plane.
      mdp_(config.recency_decay, config.learn_budget
                                     ? decision_action_space_size()
                                     : base_decision_action_space_size()),
      exploration_(config.exploration_initial) {}

void OnlineScheduler::observe(const Observation& obs) { mdp_.observe(obs); }

double OnlineScheduler::recalibrate() {
  const obs::ScopedSpan span{"scheduler.recalibrate", "core"};
  // Declared instrumentation: wall time is only reported, never read back
  // into the decision path.  capman-lint: allow(determinism)
  const auto start = std::chrono::steady_clock::now();
  MdpGraph graph = MdpGraph::from_mdp(mdp_, config_.min_observations);
  SimilarityConfig sim_config = config_.similarity_config();
  sim_config.metrics = metrics();
  sim_config.publish_timings = publish_timings();
  // Algorithm 1 starts from the last solve's similarities: the fixed point
  // barely moves between recalibrations, and the start changes only the
  // sweep count (see core/similarity.h).
  similarity_ = compute_structural_similarity(graph, sim_config,
                                              {&graph_, &similarity_});
  graph_ = std::move(graph);

  values_ = solve_values(graph_, config_.value_iteration_config());

  for (auto& bucket : transfer_candidates_) bucket.clear();
  for (std::size_t av = 0; av < graph_.action_count(); ++av) {
    const DecisionAction da =
        DecisionAction::from_index(graph_.action(av).action_id);
    transfer_candidates_[transfer_bucket(da.syscall.kind, da.battery)]
        .push_back(av);
  }
  ++recals_;
  // capman-lint: allow(determinism)
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  if (metrics() != nullptr) {
    metrics()->counter("scheduler/recalibrations").add();
    metrics()->counter("scheduler/vi_sweeps").add(values_.iterations);
    metrics()->gauge("scheduler/graph_states")
        .set(static_cast<double>(graph_.state_count()));
    metrics()->gauge("scheduler/graph_actions")
        .set(static_cast<double>(graph_.action_count()));
    if (publish_timings()) {
      metrics()
          ->histogram("scheduler/recalibrate_ms",
                      {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0})
          .observe(seconds * 1000.0);
    }
  }
  return seconds;
}

double OnlineScheduler::solved_q(std::size_t state_id,
                                 std::size_t action_id) const {
  const std::size_t vertex = graph_.vertex_of(state_id);
  if (vertex == MdpGraph::npos) return kNaN;
  // from_mdp lists each state's action vertices in ascending action_id.
  const auto& actions = graph_.state(vertex).actions;
  const auto it = std::lower_bound(
      actions.begin(), actions.end(), action_id,
      [this](std::size_t av, std::size_t id) {
        return graph_.action(av).action_id < id;
      });
  if (it == actions.end() || graph_.action(*it).action_id != action_id) {
    return kNaN;
  }
  return values_.action_values[*it];
}

double OnlineScheduler::best_q_over_levels(std::size_t state_id,
                                           const workload::Action& event,
                                           battery::BatterySelection battery,
                                           BudgetLevel* best_level) const {
  const std::size_t levels = config_.learn_budget ? kBudgetLevelCount : 1;
  double best_q = kNaN;
  BudgetLevel level = BudgetLevel::kFull;
  // Ascending level order + strict improvement: ties break toward the
  // higher budget (kFull first), the conservative default.
  for (std::size_t l = 0; l < levels; ++l) {
    const DecisionAction action{event, battery, static_cast<BudgetLevel>(l)};
    const double q = solved_q(state_id, action.index());
    if (!std::isnan(q) && (std::isnan(best_q) || q > best_q)) {
      best_q = q;
      level = static_cast<BudgetLevel>(l);
    }
  }
  if (best_level != nullptr) *best_level = level;
  return best_q;
}

double OnlineScheduler::transferred_q(std::size_t state_id,
                                      workload::Syscall kind,
                                      battery::BatterySelection battery,
                                      std::int64_t* matched_state,
                                      BudgetLevel* matched_level) const {
  const std::size_t query_vertex = graph_.vertex_of(state_id);
  double best_sim = 0.0;
  double best_q = kNaN;
  std::int64_t best_state = -1;
  BudgetLevel best_level = BudgetLevel::kFull;
  // Scan the action vertices whose syscall kind and battery match, in
  // ascending vertex order; weight each candidate's Q by the structural
  // similarity between its source state and the query state (exact state
  // match was already handled by solved_q). Budget levels transfer
  // freely: the matched action's level rides along.
  for (const std::size_t av :
       transfer_candidates_[transfer_bucket(kind, battery)]) {
    const auto& a = graph_.action(av);
    const DecisionAction da = DecisionAction::from_index(a.action_id);
    double sim = 0.2;  // floor: same-kind experience is weak evidence
    if (query_vertex != MdpGraph::npos) {
      sim = similarity_.state_similarity(query_vertex, a.source);
    }
    if (sim > best_sim) {
      best_sim = sim;
      best_q = values_.action_values[av];
      best_state = static_cast<std::int64_t>(graph_.state(a.source).state_id);
      best_level = da.budget;
    }
  }
  if (best_sim <= 0.05) return kNaN;
  if (matched_state != nullptr) *matched_state = best_state;
  if (matched_level != nullptr) *matched_level = best_level;
  return best_q;
}

battery::BatterySelection OnlineScheduler::kind_prior(
    workload::Syscall kind, std::uint8_t param_bucket) {
  using workload::Syscall;
  switch (kind) {
    // Surge-type calls: short power spikes the LITTLE battery absorbs with
    // a shallow V-edge.
    case Syscall::kScreenWake:
    case Syscall::kAppLaunch:
    case Syscall::kUserTouch:
    case Syscall::kSyncDaemon:
    case Syscall::kNetRecvStart:
    case Syscall::kNetSendStart:
    case Syscall::kVibrate:
      return battery::BatterySelection::kLittle;
    // A CPU burst is a spike only at the top intensity bucket; sustained
    // compute blocks belong on the big battery.
    case Syscall::kCpuBurst:
      return param_bucket >= 9 ? battery::BatterySelection::kLittle
                               : battery::BatterySelection::kBig;
    default:
      return battery::BatterySelection::kBig;
  }
}

void OnlineScheduler::advance_time(double now_s) {
  // Exploration decays with elapsed time (half-life ~2 minutes), not with
  // event count: sparse workloads (Geekbench) must not explore forever.
  const double elapsed = now_s - last_time_s_;
  if (elapsed > 0.0) {
    exploration_ = std::max(config_.exploration_floor,
                            exploration_ * std::exp(-elapsed / 170.0));
    last_time_s_ = now_s;
  }
}

DecideResult OnlineScheduler::decide(const DecideRequest& req) {
  exploration_ = std::max(config_.exploration_floor,
                          exploration_ * config_.exploration_decay_per_event);
  last_detail_ = obs::DecisionDetail{};
  // Without budget learning the level axis collapses to kFull: the ladder
  // below then touches exactly the pre-budget action indices and draws
  // exactly the pre-budget random numbers (bit-identity contract); the
  // result simply echoes the level in force.
  const BudgetLevel keep_level =
      config_.learn_budget ? req.budget : BudgetLevel::kFull;
  if (req.allow_exploration && rng_.chance(exploration_)) {
    ++stats_.explored;
    last_detail_.source = obs::DecisionDetail::Source::kExplored;
    DecideResult out;
    out.battery = rng_.chance(0.5) ? battery::BatterySelection::kBig
                                   : battery::BatterySelection::kLittle;
    out.budget = config_.learn_budget
                     ? static_cast<BudgetLevel>(
                           rng_.uniform_index(kBudgetLevelCount))
                     : req.budget;
    return out;
  }

  const CapmanState state{req.device, req.current};
  const std::size_t sid = state.index();

  BudgetLevel level_big = keep_level;
  BudgetLevel level_little = keep_level;
  double q_big = best_q_over_levels(sid, req.event,
                                    battery::BatterySelection::kBig,
                                    &level_big);
  double q_little = best_q_over_levels(sid, req.event,
                                       battery::BatterySelection::kLittle,
                                       &level_little);
  if (!std::isnan(q_big) && !std::isnan(q_little)) {
    ++stats_.exact;
    last_detail_.source = obs::DecisionDetail::Source::kExact;
    last_detail_.q_big = q_big;
    last_detail_.q_little = q_little;
    const bool big = q_big >= q_little;
    return {big ? battery::BatterySelection::kBig
                : battery::BatterySelection::kLittle,
            config_.learn_budget ? (big ? level_big : level_little)
                                 : req.budget};
  }

  // Similarity transfer for the missing side(s). The matched state is the
  // one the chosen side's Q came from (decided below), so remember both.
  std::int64_t matched_big = -1;
  std::int64_t matched_little = -1;
  if (std::isnan(q_big)) {
    q_big = transferred_q(sid, req.event.kind,
                          battery::BatterySelection::kBig, &matched_big,
                          &level_big);
  }
  if (std::isnan(q_little)) {
    q_little = transferred_q(sid, req.event.kind,
                             battery::BatterySelection::kLittle,
                             &matched_little, &level_little);
  }
  if (!std::isnan(q_big) && !std::isnan(q_little)) {
    ++stats_.transferred;
    const bool big = q_big >= q_little;
    last_detail_.source = obs::DecisionDetail::Source::kTransferred;
    last_detail_.matched_state = big ? matched_big : matched_little;
    last_detail_.q_big = q_big;
    last_detail_.q_little = q_little;
    return {big ? battery::BatterySelection::kBig
                : battery::BatterySelection::kLittle,
            config_.learn_budget ? (big ? level_big : level_little)
                                 : req.budget};
  }

  ++stats_.fallback;
  last_detail_.source = obs::DecisionDetail::Source::kFallback;
  last_detail_.q_big = q_big;        // whichever side resolved, for the
  last_detail_.q_little = q_little;  // trace; NaN serialises as null
  // No experience to rate a voluntary derate either: keep the level in
  // force rather than guessing.
  return {kind_prior(req.event.kind, req.event.param_bucket), req.budget};
}

}  // namespace capman::core
