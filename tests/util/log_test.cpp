#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace autoncs::util {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

/// Captures every dispatched line for the duration of a test.
class LogCapture {
 public:
  LogCapture() {
    previous_ = set_log_sink([this](LogLevel level, const std::string& line) {
      lines_.push_back({level, line});
    });
  }
  ~LogCapture() { set_log_sink(previous_); }

  const std::vector<std::pair<LogLevel, std::string>>& lines() const {
    return lines_;
  }

 private:
  LogSink previous_;
  std::vector<std::pair<LogLevel, std::string>> lines_;
};

TEST(Log, LevelRoundTrips) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(Log, SuppressedMessagesDoNotCrash) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  EXPECT_NO_THROW(log_message(LogLevel::kError, "test", "dropped"));
  EXPECT_NO_THROW((LogLine(LogLevel::kInfo, "test") << "also " << 42));
}

TEST(Log, StreamFormatting) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);  // keep test output clean
  // The LogLine destructor must assemble and submit without throwing.
  EXPECT_NO_THROW(
      (LogLine(LogLevel::kWarn, "tag") << "x=" << 1.5 << " y=" << "s"));
}

TEST(Log, LevelNamesRoundTrip) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError,
                               LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kOff;
    ASSERT_TRUE(parse_log_level(log_level_name(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  LogLevel untouched = LogLevel::kWarn;
  EXPECT_FALSE(parse_log_level("verbose", &untouched));
  EXPECT_FALSE(parse_log_level("", &untouched));
  EXPECT_EQ(untouched, LogLevel::kWarn);
}

TEST(Log, SinkCapturesFormattedLines) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  LogCapture capture;
  log_message(LogLevel::kInfo, "stage", "hello");
  LogLine(LogLevel::kWarn, "stage") << "x=" << 2;
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0].first, LogLevel::kInfo);
  EXPECT_NE(capture.lines()[0].second.find("stage"), std::string::npos);
  EXPECT_NE(capture.lines()[0].second.find("hello"), std::string::npos);
  EXPECT_NE(capture.lines()[1].second.find("x=2"), std::string::npos);
}

TEST(Log, SinkRespectsThreshold) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  LogCapture capture;
  log_message(LogLevel::kInfo, "stage", "dropped");
  log_message(LogLevel::kError, "stage", "kept");
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].second.find("kept"), std::string::npos);
}

TEST(Log, TimestampsAndStageContextAreOffByDefault) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  LogCapture capture;
  set_log_stage("placement");  // stage is tracked, but not displayed
  log_message(LogLevel::kInfo, "tag", "plain line");
  set_log_stage(nullptr);
  ASSERT_EQ(capture.lines().size(), 1u);
  // Golden output shape: "[info] tag: plain line" — no timestamp, no
  // stage annotation unless explicitly enabled.
  EXPECT_EQ(capture.lines()[0].second, "[info] tag: plain line");
}

TEST(Log, OptionalTimestampPrefixIsIso8601) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  LogCapture capture;
  set_log_timestamps(true);
  log_message(LogLevel::kInfo, "tag", "stamped");
  set_log_timestamps(false);
  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0].second;
  // "2026-08-07T12:34:56Z [info] tag: stamped"
  ASSERT_GE(line.size(), 21u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[7], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[13], ':');
  EXPECT_EQ(line[16], ':');
  EXPECT_EQ(line[19], 'Z');
  EXPECT_EQ(line[20], ' ');
  EXPECT_NE(line.find("[info] tag: stamped"), std::string::npos);
}

TEST(Log, OptionalStageContextAnnotatesLines) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  LogCapture capture;
  set_log_stage_context(true);
  set_log_stage("routing");
  log_message(LogLevel::kWarn, "tag", "with stage");
  set_log_stage(nullptr);
  log_message(LogLevel::kWarn, "tag", "without stage");
  set_log_stage_context(false);
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0].second, "[warn] (routing) tag: with stage");
  // No active stage -> the annotation disappears rather than printing
  // an empty marker.
  EXPECT_EQ(capture.lines()[1].second, "[warn] tag: without stage");
}

TEST(Log, ConcurrentWritersNeverInterleaveCharacters) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  LogCapture capture;
  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      std::string tag = "t";
      tag += std::to_string(t);
      for (int i = 0; i < kLines; ++i)
        LogLine(LogLevel::kInfo, tag) << "line " << i << " end";
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_EQ(capture.lines().size(),
            static_cast<std::size_t>(kThreads * kLines));
  // Every captured line must be one intact message (the mutex admits
  // interleaved LINES but never characters).
  for (const auto& [level, line] : capture.lines()) {
    EXPECT_EQ(level, LogLevel::kInfo);
    EXPECT_NE(line.find(" end"), std::string::npos) << line;
  }
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  // Busy-wait a tiny amount.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GT(timer.elapsed_ms(), 0.0);
  EXPECT_GE(timer.elapsed_s() * 1000.0, 0.0);
  const double before = timer.elapsed_ms();
  timer.restart();
  EXPECT_LE(timer.elapsed_ms(), before + 1.0);
}

TEST(Timer, UnitsConsistent) {
  WallTimer timer;
  const double ms = timer.elapsed_ms();
  const double s = timer.elapsed_s();
  EXPECT_NEAR(ms, s * 1000.0, 5.0);
}

}  // namespace
}  // namespace autoncs::util
