// Decision-trace recorder: one structured JSONL record per scheduler
// consultation, so a run can be replayed decision-by-decision (what the
// policy saw, what it chose, why, and what the actuator did with it).
//
// The recorder is a null object by default: obs::Telemetry only assembles
// and forwards decision events when some decision sink is on, and a
// disabled recorder performs no work at all — runs with the recorder off
// are bit-identical to recorder-free builds (asserted in
// tests/sim/telemetry_test.cpp).
//
// Schema (one JSON object per line; scripts/check_trace_schema.py is the
// source of truth for required keys):
//   t_s, seq, policy, event, param, emergency          — the consultation
//   cpu, screen, wifi, active                          — observed state
//   chosen                                             — policy answer
//   source, matched_state, q_big, q_little             — CAPMAN decision
//       provenance (null for policies without a scheduler): source is
//       exact | transferred | fallback | explored, matched_state is the
//       CapmanState::index() whose experience was reused via similarity
//   switch_requested, switch_accepted, switch_pending  — actuator outcome
//   guard_fallback, fault_stuck                        — degradation state
//   big_soc, little_soc, hotspot_c, demand_w           — sensor readings
//       as the policy observed them (post fault-injection)
//   budget_level, granted_mw                           — power-budget
//       arbiter state in force at the consultation (0 / kFull and 0.0
//       when no arbiter runs)
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

namespace capman::obs {

/// Why a CAPMAN decision came out the way it did (scheduler-internal
/// provenance surfaced through policy::BatteryPolicy::last_decision_detail).
struct DecisionDetail {
  enum class Source { kExact, kTransferred, kFallback, kExplored };
  Source source = Source::kFallback;
  /// CapmanState::index() of the state whose experience was reused via
  /// structural similarity; -1 when the decision did not transfer.
  std::int64_t matched_state = -1;
  double q_big = std::numeric_limits<double>::quiet_NaN();
  double q_little = std::numeric_limits<double>::quiet_NaN();
};

const char* to_string(DecisionDetail::Source source);

/// One scheduler consultation, assembled once by the simulation engine and
/// fanned out by obs::Telemetry to the JSONL sink, the flight recorder and
/// the Perfetto decision track. Names are borrowed C strings (the
/// to_string() results of the enums they name; `policy` points into the
/// run's SimResult) so assembly never allocates.
struct DecisionEvent {
  std::uint64_t seq = 0;  // consultation index within the run
  double t_s = 0.0;       // simulation time
  const char* policy = "";

  const char* event = "";  // syscall name; "rail-monitor" for pure emergencies
  int param = 0;
  bool emergency = false;

  const char* cpu = "";  // device power states as consulted
  const char* screen = "";
  const char* wifi = "";
  const char* active = "";  // cell carrying the load when consulted
  const char* chosen = "";  // cell the policy asked for

  std::optional<DecisionDetail> detail;  // CAPMAN provenance, else nullopt

  bool switch_requested = false;  // chosen != active
  bool switch_accepted = false;   // the pack would take the switch
  bool switch_pending = false;    // a transient is in flight afterwards

  bool guard_fallback = false;  // DegradationGuard riding the safe policy
  bool fault_stuck = false;     // comparator inside a stuck episode

  double big_soc = 0.0;  // observed (possibly fault-corrupted) readings
  double little_soc = 0.0;
  double hotspot_c = 0.0;
  double demand_w = 0.0;

  bool budget_active = false;  // the consultation re-arbitrated the budget
  int budget_level = 0;        // core::BudgetLevel in force (0 = full)
  double granted_mw = 0.0;     // arbiter's total grant; 0 without an arbiter
};

/// Record sink interface. The null object (base class) drops everything;
/// enabled() lets callers skip record assembly entirely when disabled.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  [[nodiscard]] virtual bool enabled() const { return false; }
  virtual void record(const DecisionEvent& /*rec*/) {}
  virtual void flush() {}
  [[nodiscard]] virtual std::uint64_t records_written() const { return 0; }
};

/// JSONL sink: one compact JSON object per record, append-only. Records
/// are serialised into an internal buffer (std::to_chars, no locale) and
/// handed to the stream in large writes; call flush() (the engine's
/// teardown does) or destroy the sink to drain the tail.
class JsonlDecisionSink final : public DecisionSink {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit JsonlDecisionSink(const std::string& path);
  /// Writes to a caller-owned stream (tests).
  explicit JsonlDecisionSink(std::ostream& out);
  ~JsonlDecisionSink() override;

  [[nodiscard]] bool enabled() const override { return true; }
  void record(const DecisionEvent& rec) override;
  void flush() override;
  [[nodiscard]] std::uint64_t records_written() const override {
    return records_;
  }

  /// The serialisation itself, exposed for schema round-trip tests.
  static void write_json_line(std::ostream& out, const DecisionEvent& rec);

 private:
  std::ofstream file_;
  std::ostream* out_;
  std::string buffer_;
  std::uint64_t records_ = 0;
};

}  // namespace capman::obs
