#include "obs/flight_recorder.h"

#include <stdexcept>
#include <utility>

#include "obs/json_append.h"
#include "util/config_check.h"

namespace capman::obs {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kTrigger: return "trigger";
    case FlightEventKind::kDecision: return "decision";
    case FlightEventKind::kSwitch: return "switch";
    case FlightEventKind::kBudget: return "budget";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kGuard: return "guard";
    case FlightEventKind::kAlert: return "alert";
    case FlightEventKind::kEngine: return "engine";
    case FlightEventKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

std::vector<std::string> FlightRecorderConfig::validate() const {
  std::vector<std::string> errors;
  if (capacity < 2) {
    errors.emplace_back("capacity must be >= 2");
  }
  if (enabled && dump_path.empty()) {
    errors.emplace_back("dump_path is required when enabled");
  }
  if (!enabled && (!dump_path.empty() || dump_at_end)) {
    errors.emplace_back("dump_path/dump_at_end require enabled to be true");
  }
  return errors;
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config)
    : config_(config) {
  util::throw_if_invalid("FlightRecorderConfig", config_.validate());
  ring_.reserve(config_.capacity);
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config,
                               std::ostream& out)
    : config_(config), out_(&out) {
  // Stream-backed recorders are a test vehicle; tolerate an empty
  // dump_path by validating a patched copy.
  FlightRecorderConfig patched = config_;
  if (patched.enabled && patched.dump_path.empty()) {
    patched.dump_path = "<stream>";
  }
  util::throw_if_invalid("FlightRecorderConfig", patched.validate());
  ring_.reserve(config_.capacity);
}

void FlightRecorder::record(double t_s, FlightEventKind kind, std::string what,
                            std::string detail, double value) {
  FlightEvent event;
  event.seq = seq_++;
  event.t_s = t_s;
  event.kind = kind;
  event.what = std::move(what);
  event.detail = std::move(detail);
  event.value = value;
  if (ring_.size() < config_.capacity) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % config_.capacity;
  }
}

void FlightRecorder::open_sink() {
  if (out_ != nullptr) return;
  file_.open(config_.dump_path, std::ios::trunc);
  if (!file_) {
    throw std::runtime_error("FlightRecorder: cannot open " +
                             config_.dump_path);
  }
  out_ = &file_;
}

std::size_t FlightRecorder::trigger(double t_s, const std::string& reason) {
  if (ring_.empty()) return 0;
  open_sink();
  const std::uint64_t dump = dumps_++;
  FlightEvent header;
  header.seq = seq_++;
  header.t_s = t_s;
  header.kind = FlightEventKind::kTrigger;
  header.what = reason;
  header.value = static_cast<double>(ring_.size());
  write_json_line(*out_, header, dump);
  // Oldest-to-newest: the ring is [next_, end) then [0, next_) once the
  // write cursor wrapped.
  std::size_t written = 1;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::size_t index =
        ring_.size() == config_.capacity ? (next_ + i) % ring_.size() : i;
    write_json_line(*out_, ring_[index], dump);
    ++written;
  }
  ring_.clear();
  next_ = 0;
  records_ += written;
  out_->flush();
  return written;
}

void FlightRecorder::flush() {
  if (out_ != nullptr) out_->flush();
}

void FlightRecorder::write_json_line(std::ostream& out,
                                     const FlightEvent& event,
                                     std::uint64_t dump) {
  std::string buf;
  buf.reserve(160);
  buf += "{\"dump\":";
  detail::append_u64(buf, dump);
  buf += ",\"seq\":";
  detail::append_u64(buf, event.seq);
  buf += ",\"t_s\":";
  detail::append_fixed(buf, event.t_s, 3);
  buf += ",\"kind\":";
  detail::append_string(buf, to_string(event.kind));
  buf += ",\"what\":";
  detail::append_string(buf, event.what);
  buf += ",\"detail\":";
  detail::append_string(buf, event.detail);
  buf += ",\"value\":";
  detail::append_double(buf, event.value);
  buf += "}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace capman::obs
