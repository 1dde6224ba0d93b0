#include "util/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace autoncs::util {
namespace {

TEST(Flight, DisabledRecordsNothing) {
  ASSERT_FALSE(flight_enabled());
  flight_record_span("never", true);
  flight_record_log("never logged");
  start_flight_recorder();
  EXPECT_EQ(flight_recorder_size(), 0u);
  stop_flight_recorder();
}

TEST(Flight, RecordsSpansAndLogLines) {
  start_flight_recorder();
  flight_record_span("flow/place", true);
  flight_record_log("[info] place: hello");
  flight_record_span("flow/place", false);
  EXPECT_EQ(flight_recorder_size(), 3u);
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  ASSERT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"autoncs-flight/1\""), std::string::npos);
  EXPECT_NE(json.find("flow/place"), std::string::npos);
  EXPECT_NE(json.find("hello"), std::string::npos);
  EXPECT_NE(json.find("\"span_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"span_end\""), std::string::npos);
  EXPECT_NE(json.find("\"log\""), std::string::npos);
}

TEST(Flight, RingWrapsAroundKeepingTheNewestEntries) {
  start_flight_recorder();
  const std::size_t total = kFlightRingSlots + 200;
  for (std::size_t i = 0; i < total; ++i) {
    flight_record_log(("line " + std::to_string(i)).c_str());
  }
  // The ring holds only the last kFlightRingSlots entries but reports the
  // true recorded count.
  EXPECT_EQ(flight_recorder_size(), kFlightRingSlots);
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"recorded\":" + std::to_string(total)),
            std::string::npos);
  // The newest entry survived; the oldest was overwritten.
  EXPECT_NE(json.find("line " + std::to_string(total - 1)), std::string::npos);
  EXPECT_EQ(json.find("\"line 0\""), std::string::npos);
}

TEST(Flight, RestartClearsThePreviousSession) {
  start_flight_recorder();
  flight_record_log("first session");
  stop_flight_recorder();
  start_flight_recorder();
  EXPECT_EQ(flight_recorder_size(), 0u);
  flight_record_log("second session");
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  EXPECT_EQ(json.find("first session"), std::string::npos);
  EXPECT_NE(json.find("second session"), std::string::npos);
}

TEST(Flight, TraceSpansFeedTheRingEvenWithoutTracing) {
  ASSERT_FALSE(tracing_enabled());
  start_flight_recorder();
  { AUTONCS_TRACE_SCOPE("flight/only-span"); }
  EXPECT_EQ(flight_recorder_size(), 2u);  // span begin + end
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  EXPECT_NE(json.find("flight/only-span"), std::string::npos);
  // Tracing stayed off: nothing reached the trace buffers.
  EXPECT_TRUE(stop_tracing().empty());
}

TEST(Flight, LogLinesFeedTheRing) {
  start_flight_recorder();
  log_message(LogLevel::kError, "flight", "recorded into the ring");
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  EXPECT_NE(json.find("recorded into the ring"), std::string::npos);
}

TEST(Flight, ConcurrentWritersProduceAValidDocument) {
  start_flight_recorder();
  constexpr int kThreads = 4;
  constexpr int kEvents = 2000;  // forces several wraparounds
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      std::string label = "t";
      label += std::to_string(t);
      for (int i = 0; i < kEvents; ++i) {
        flight_record_span("concurrent/span", (i & 1) == 0);
        flight_record_log(label.c_str());
      }
    });
  }
  for (auto& w : writers) w.join();
  const std::string json = flight_recorder_json();
  stop_flight_recorder();
  EXPECT_TRUE(json_valid(json));
}

TEST(Flight, WriteJsonProducesAParsableArtifact) {
  const auto path =
      std::filesystem::temp_directory_path() / "autoncs_flight_test.json";
  start_flight_recorder();
  flight_record_span("artifact/span", true);
  flight_record_log("artifact line with \"quotes\" and \\ backslash");
  flight_record_span("artifact/span", false);
  ASSERT_TRUE(flight_write_json(path.string()));
  stop_flight_recorder();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_valid(buffer.str())) << buffer.str();
  std::filesystem::remove(path);
}

TEST(Flight, DumpFdMatchesTheJsonRenderer) {
  // The async-signal-safe path must agree with the normal renderer on a
  // quiescent ring (both valid JSON with the same event payload).
  const auto path =
      std::filesystem::temp_directory_path() / "autoncs_flight_fd_test.json";
  start_flight_recorder();
  flight_record_log("fd dump line");
  flight_record_span("fd/span", true);
  const std::string rendered = flight_recorder_json();
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  ASSERT_NE(f, nullptr);
  flight_dump_fd(fileno(f));
  std::fclose(f);
  stop_flight_recorder();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_valid(buffer.str())) << buffer.str();
  EXPECT_NE(buffer.str().find("fd dump line"), std::string::npos);
  EXPECT_NE(buffer.str().find("fd/span"), std::string::npos);
  EXPECT_TRUE(json_valid(rendered));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace autoncs::util
