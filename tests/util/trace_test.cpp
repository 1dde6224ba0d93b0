#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::util {
namespace {

TEST(Trace, DisabledRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  {
    AUTONCS_TRACE_SCOPE("never/recorded");
    AUTONCS_TRACE_SCOPE("also/never", "arg", 7);
  }
  EXPECT_TRUE(stop_tracing().empty());
}

TEST(Trace, SpansNestOnOneThread) {
  start_tracing();
  {
    AUTONCS_TRACE_SCOPE("outer");
    { AUTONCS_TRACE_SCOPE("inner", "iter", 3); }
  }
  const auto events = stop_tracing();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by begin timestamp with the enclosing span first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_EQ(events[0].arg_name, nullptr);
  ASSERT_NE(events[1].arg_name, nullptr);
  EXPECT_STREQ(events[1].arg_name, "iter");
  EXPECT_EQ(events[1].arg, 3);
}

TEST(Trace, WorkerSpansCarryDistinctThreadIds) {
  start_tracing();
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  // Blocks are claimed, so a fast caller could run several of them; the
  // barrier holds each block until all four are running, which can only
  // happen on four different threads.
  std::atomic<int> arrived{0};
  pool.parallel_for(
      4,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          AUTONCS_TRACE_SCOPE("worker/chunk");
          arrived.fetch_add(1);
          while (arrived.load() < 4) std::this_thread::yield();
        }
      },
      1);
  const auto events = stop_tracing();
  // The pool adds its own scheduler spans (pool/dispatch + pool/drain on
  // the caller, pool/run per active worker); count only the user spans.
  std::set<std::uint32_t> tids;
  std::size_t chunks = 0;
  std::size_t runs = 0;
  for (const auto& event : events) {
    if (std::string(event.name) == "worker/chunk") {
      ++chunks;
      tids.insert(event.tid);
    }
    if (std::string(event.name) == "pool/run") ++runs;
  }
  ASSERT_EQ(chunks, 4u);
  // One chunk per thread; one is the calling thread, the other three are
  // pool threads — every span must come from a different thread, and
  // every participant (caller and three signalled workers) emits one
  // pool/run span.
  EXPECT_EQ(tids.size(), 4u);
  EXPECT_EQ(runs, 4u);
}

TEST(Trace, SessionsAreIsolated) {
  start_tracing();
  { AUTONCS_TRACE_SCOPE("first/session"); }
  EXPECT_EQ(stop_tracing().size(), 1u);
  // A new session must not see the old session's events.
  start_tracing();
  { AUTONCS_TRACE_SCOPE("second/session"); }
  const auto events = stop_tracing();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second/session");
}

TEST(Trace, EmptySessionExportsAValidDocument) {
  // A run that enabled tracing but recorded no spans must still produce a
  // loadable artifact (perf_report.py treats it as "empty trace").
  start_tracing();
  const auto events = stop_tracing();
  EXPECT_TRUE(events.empty());
  const std::string json = chrome_trace_json(events);
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Trace, SpanOpenAtExportIsDropped) {
  // Spans are recorded at CLOSE: a span still open when the session stops
  // is absent from the export, and its late close (tracing now disabled)
  // must not leak into a later session either.
  start_tracing();
  {
    TraceSpan open_span("never/closed-in-session");
    { AUTONCS_TRACE_SCOPE("closed/in-session"); }
    const auto events = stop_tracing();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "closed/in-session");
  }  // open_span closes here, after its session already exported
  start_tracing();
  EXPECT_TRUE(stop_tracing().empty());
}

TEST(Trace, ChromeTraceJsonIsValid) {
  start_tracing();
  {
    AUTONCS_TRACE_SCOPE("flow/place");
    { AUTONCS_TRACE_SCOPE("place/cg", "iter", 1); }
  }
  const std::string json = chrome_trace_json(stop_tracing());
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("place/cg"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"iter\":1}"), std::string::npos);
  // An empty event list still renders a loadable document.
  EXPECT_TRUE(json_valid(chrome_trace_json({})));
}

}  // namespace
}  // namespace autoncs::util
