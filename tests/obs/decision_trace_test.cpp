// Decision-trace recorder: JSONL schema stability (field-for-field), NaN
// and missing-detail handling, string escaping, and the null-object /
// buffered-sink contracts the engine relies on.
#include "obs/decision_trace.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace capman::obs {
namespace {

DecisionEvent sample_record() {
  DecisionEvent rec;
  rec.seq = 7;
  rec.t_s = 12.25;
  rec.policy = "CAPMAN";
  rec.event = "video_frame";
  rec.param = 3;
  rec.emergency = false;
  rec.cpu = "C2";
  rec.screen = "ON";
  rec.wifi = "IDLE";
  rec.active = "big";
  rec.chosen = "LITTLE";
  DecisionDetail detail;
  detail.source = DecisionDetail::Source::kTransferred;
  detail.matched_state = 42;
  detail.q_big = 1.5;
  detail.q_little = 2.25;
  rec.detail = detail;
  rec.switch_requested = true;
  rec.switch_accepted = true;
  rec.switch_pending = false;
  rec.guard_fallback = false;
  rec.fault_stuck = true;
  rec.big_soc = 0.75;
  rec.little_soc = 0.5;
  rec.hotspot_c = 41.125;
  rec.demand_w = 2.5;
  rec.budget_level = 1;
  rec.granted_mw = 3450.5;
  return rec;
}

TEST(DecisionTraceTest, FullRecordSerialisesEveryField) {
  std::ostringstream out;
  JsonlDecisionSink::write_json_line(out, sample_record());
  // The schema is append-only and scripts/check_trace_schema.py validates
  // it from the outside; here we pin the exact line so accidental field
  // renames/reorderings fail loudly. All doubles in the sample are exactly
  // representable, so fixed-point formatting is deterministic.
  EXPECT_EQ(out.str(),
            "{\"seq\":7,\"t_s\":12.250,\"policy\":\"CAPMAN\","
            "\"event\":\"video_frame\",\"param\":3,\"emergency\":false,"
            "\"cpu\":\"C2\",\"screen\":\"ON\",\"wifi\":\"IDLE\","
            "\"active\":\"big\",\"chosen\":\"LITTLE\","
            "\"source\":\"transferred\",\"matched_state\":42,"
            "\"q_big\":1.5000,\"q_little\":2.2500,"
            "\"switch_requested\":true,\"switch_accepted\":true,"
            "\"switch_pending\":false,\"guard_fallback\":false,"
            "\"fault_stuck\":true,\"big_soc\":0.750000,"
            "\"little_soc\":0.500000,\"hotspot_c\":41.125,"
            "\"demand_w\":2.5000,\"budget_level\":1,"
            "\"granted_mw\":3450.5}\n");
}

TEST(DecisionTraceTest, MissingDetailAndNaNBecomeNull) {
  DecisionEvent rec = sample_record();
  rec.detail.reset();
  std::ostringstream out;
  JsonlDecisionSink::write_json_line(out, rec);
  EXPECT_NE(out.str().find("\"source\":null,\"matched_state\":null,"
                           "\"q_big\":null,\"q_little\":null"),
            std::string::npos);

  DecisionDetail detail;  // q's default to NaN, matched_state to -1
  detail.source = DecisionDetail::Source::kFallback;
  rec.detail = detail;
  std::ostringstream out2;
  JsonlDecisionSink::write_json_line(out2, rec);
  EXPECT_NE(out2.str().find("\"source\":\"fallback\",\"matched_state\":null,"
                            "\"q_big\":null,\"q_little\":null"),
            std::string::npos);
}

TEST(DecisionTraceTest, StringsAreEscaped) {
  DecisionEvent rec = sample_record();
  rec.event = "weird\"name\\with\nnewline";
  std::ostringstream out;
  JsonlDecisionSink::write_json_line(out, rec);
  EXPECT_NE(out.str().find("\"event\":\"weird\\\"name\\\\with\\nnewline\""),
            std::string::npos);
}

TEST(DecisionTraceTest, NullSinkDropsEverything) {
  DecisionSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.record(sample_record());
  sink.flush();
  EXPECT_EQ(sink.records_written(), 0u);
}

TEST(DecisionTraceTest, BufferedSinkDrainsOnFlush) {
  std::ostringstream out;
  JsonlDecisionSink sink{out};
  ASSERT_TRUE(sink.enabled());
  for (int i = 0; i < 10; ++i) {
    DecisionEvent rec = sample_record();
    rec.seq = static_cast<std::uint64_t>(i);
    sink.record(rec);
  }
  EXPECT_EQ(sink.records_written(), 10u);
  sink.flush();

  // One line per record, each a '{...}' object carrying its own seq.
  std::istringstream lines{out.str()};
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\":" + std::to_string(n) + ","),
              std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 10);
}

TEST(DecisionTraceTest, SourceNames) {
  EXPECT_STREQ(to_string(DecisionDetail::Source::kExact), "exact");
  EXPECT_STREQ(to_string(DecisionDetail::Source::kTransferred), "transferred");
  EXPECT_STREQ(to_string(DecisionDetail::Source::kFallback), "fallback");
  EXPECT_STREQ(to_string(DecisionDetail::Source::kExplored), "explored");
}

}  // namespace
}  // namespace capman::obs
