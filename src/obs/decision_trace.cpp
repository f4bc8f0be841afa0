#include "obs/decision_trace.h"

#include <stdexcept>

#include "obs/json_append.h"

namespace capman::obs {

const char* to_string(DecisionDetail::Source source) {
  switch (source) {
    case DecisionDetail::Source::kExact: return "exact";
    case DecisionDetail::Source::kTransferred: return "transferred";
    case DecisionDetail::Source::kFallback: return "fallback";
    case DecisionDetail::Source::kExplored: return "explored";
  }
  return "?";
}

namespace {

// Drain the buffer to the stream once it holds this much; record() stays
// on the memcpy/to_chars fast path and the stream sees few large writes.
constexpr std::size_t kDrainThreshold = 1 << 18;

void append_json_line(std::string& out, const DecisionEvent& rec) {
  using detail::append_bool;
  using detail::append_double;
  using detail::append_fixed;
  using detail::append_i64;
  using detail::append_string;
  using detail::append_u64;

  out += "{\"seq\":";
  append_u64(out, rec.seq);
  out += ",\"t_s\":";
  append_fixed(out, rec.t_s, 3);
  out += ",\"policy\":";
  append_string(out, rec.policy);
  out += ",\"event\":";
  append_string(out, rec.event);
  out += ",\"param\":";
  append_i64(out, rec.param);
  out += ",\"emergency\":";
  append_bool(out, rec.emergency);
  out += ",\"cpu\":";
  append_string(out, rec.cpu);
  out += ",\"screen\":";
  append_string(out, rec.screen);
  out += ",\"wifi\":";
  append_string(out, rec.wifi);
  out += ",\"active\":";
  append_string(out, rec.active);
  out += ",\"chosen\":";
  append_string(out, rec.chosen);
  if (rec.detail.has_value()) {
    out += ",\"source\":\"";
    out += to_string(rec.detail->source);
    out += "\",\"matched_state\":";
    if (rec.detail->matched_state >= 0) {
      append_i64(out, rec.detail->matched_state);
    } else {
      out += "null";
    }
    out += ",\"q_big\":";
    append_fixed(out, rec.detail->q_big, 4);  // NaN -> null
    out += ",\"q_little\":";
    append_fixed(out, rec.detail->q_little, 4);
  } else {
    out +=
        ",\"source\":null,\"matched_state\":null,\"q_big\":null,"
        "\"q_little\":null";
  }
  out += ",\"switch_requested\":";
  append_bool(out, rec.switch_requested);
  out += ",\"switch_accepted\":";
  append_bool(out, rec.switch_accepted);
  out += ",\"switch_pending\":";
  append_bool(out, rec.switch_pending);
  out += ",\"guard_fallback\":";
  append_bool(out, rec.guard_fallback);
  out += ",\"fault_stuck\":";
  append_bool(out, rec.fault_stuck);
  out += ",\"big_soc\":";
  append_fixed(out, rec.big_soc, 6);
  out += ",\"little_soc\":";
  append_fixed(out, rec.little_soc, 6);
  out += ",\"hotspot_c\":";
  append_fixed(out, rec.hotspot_c, 3);
  out += ",\"demand_w\":";
  append_fixed(out, rec.demand_w, 4);
  out += ",\"budget_level\":";
  append_i64(out, rec.budget_level);
  out += ",\"granted_mw\":";
  append_fixed(out, rec.granted_mw, 1);
  out += "}\n";
}

}  // namespace

JsonlDecisionSink::JsonlDecisionSink(const std::string& path)
    : file_(path, std::ios::trunc), out_(&file_) {
  if (!file_) {
    throw std::runtime_error("JsonlDecisionSink: cannot open " + path);
  }
  buffer_.reserve(kDrainThreshold + 1024);
}

JsonlDecisionSink::JsonlDecisionSink(std::ostream& out) : out_(&out) {}

JsonlDecisionSink::~JsonlDecisionSink() { flush(); }

void JsonlDecisionSink::record(const DecisionEvent& rec) {
  append_json_line(buffer_, rec);
  ++records_;
  if (buffer_.size() >= kDrainThreshold) {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void JsonlDecisionSink::flush() {
  if (!buffer_.empty()) {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_->flush();
}

void JsonlDecisionSink::write_json_line(std::ostream& out,
                                        const DecisionEvent& rec) {
  std::string line;
  line.reserve(512);
  append_json_line(line, rec);
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace capman::obs
