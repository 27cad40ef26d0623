// Request-span traces and the flight recorder: builder mechanics, the JSON
// and canonical-text forms, and the recorder's bounded keep-errors
// retention.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace_span.hpp"

namespace kami {
namespace {

using obs::FlightRecorder;
using obs::Json;
using obs::RequestTrace;
using obs::TraceBuilder;

RequestTrace ok_trace(const std::string& id) {
  TraceBuilder b(id);
  b.open("work");
  b.advance(10.0);
  b.close();
  b.root_attr("code", "ok");
  return b.finish();
}

RequestTrace error_trace(const std::string& id, const char* code = "transient_fault") {
  TraceBuilder b(id);
  b.open("work");
  b.advance(5.0);
  b.root_attr("code", code);
  return b.finish();  // also closes the still-open "work" span
}

TEST(TraceSpan, BuilderNestsSpansAndAdvancesTheClock) {
  TraceBuilder b("req-1");
  EXPECT_EQ(b.clock(), 0.0);
  b.open("outer");
  b.advance(100.0);
  b.open("inner");
  b.attr("key", "value");
  b.attr_num("cycles", 41.5);
  b.advance(41.5);
  b.close();  // inner
  b.advance(8.5);
  b.close();  // outer
  EXPECT_THROW(b.close(), kami::PreconditionError);  // only finish() closes the root
  EXPECT_THROW(b.advance_to(149.0), kami::PreconditionError);  // never moves back
  b.advance_to(150.0);
  b.set_meta("shape", "64x64x64");
  const RequestTrace t = b.finish();

  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.request_id, "req-1");
  EXPECT_EQ(t.root()->name, "request");
  EXPECT_EQ(t.root()->begin_cycles, 0.0);
  EXPECT_EQ(t.root()->end_cycles, 150.0);

  const obs::Span* outer = t.find_span("outer");
  const obs::Span* inner = t.find_span("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0);
  EXPECT_EQ(inner->parent, static_cast<std::int32_t>(outer->id));
  EXPECT_EQ(inner->begin_cycles, 100.0);
  EXPECT_EQ(inner->end_cycles, 141.5);
  ASSERT_NE(inner->find_attr("key"), nullptr);
  EXPECT_EQ(*inner->find_attr("key"), "value");
  EXPECT_EQ(*inner->find_attr("cycles"), "41.5");
  ASSERT_NE(t.find_meta("shape"), nullptr);
  EXPECT_EQ(*t.find_meta("shape"), "64x64x64");
  EXPECT_EQ(t.children_of(0), std::vector<std::uint32_t>{outer->id});
}

TEST(TraceSpan, FinishClosesOpenSpansAtTheFinalClock) {
  TraceBuilder b("req-1");
  b.open("left-open");
  b.advance(7.0);
  const RequestTrace t = b.finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].end_cycles, 7.0);
  EXPECT_EQ(t.root()->end_cycles, 7.0);
}

TEST(TraceSpan, IsErrorRoutesOnTheRootCodeAttribute) {
  EXPECT_FALSE(ok_trace("a").is_error());
  EXPECT_TRUE(error_trace("b").is_error());
  TraceBuilder no_code("c");
  EXPECT_FALSE(no_code.finish().is_error());
}

TEST(TraceSpan, JsonRoundTripIsExact) {
  TraceBuilder b("req-42");
  b.set_meta("device", "GH200");
  b.open("rung[0]");
  b.attr("label", "kami_2d");
  b.advance(123.456);
  b.close();
  b.root_attr("code", "ok");
  const RequestTrace t = b.finish();

  const RequestTrace back = RequestTrace::from_json(t.to_json());
  EXPECT_EQ(back.canonical_text(), t.canonical_text());
  EXPECT_EQ(back.request_id, t.request_id);
  ASSERT_EQ(back.spans.size(), t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].begin_cycles, t.spans[i].begin_cycles);
    EXPECT_EQ(back.spans[i].end_cycles, t.spans[i].end_cycles);
    EXPECT_EQ(back.spans[i].attrs, t.spans[i].attrs);
  }
}

// Hand-build a trace document with one root plus one child span whose
// id/parent/interval are caller-controlled, for schema-rejection tests.
Json trace_doc(double child_id, double child_parent, double child_end) {
  const auto span = [](double id, double parent, double end) {
    Json s = Json::object();
    s.set("id", id);
    s.set("parent", parent);
    s.set("name", "s" + obs::json_number(id));
    s.set("begin_cycles", 0.0);
    s.set("end_cycles", end);
    return s;
  };
  Json spans = Json::array();
  spans.push_back(span(0.0, -1.0, 10.0));
  spans.push_back(span(child_id, child_parent, child_end));
  Json doc = Json::object();
  doc.set("request_id", "req-1");
  doc.set("spans", std::move(spans));
  return doc;
}

TEST(TraceSpan, FromJsonRejectsMalformedTrees) {
  // The well-formed control parses.
  EXPECT_EQ(RequestTrace::from_json(trace_doc(1.0, 0.0, 5.0)).spans.size(), 2u);
  // Span ids must be 0..n-1 in order.
  EXPECT_THROW(RequestTrace::from_json(trace_doc(5.0, 0.0, 5.0)), obs::SchemaError);
  // A parent must precede its child.
  EXPECT_THROW(RequestTrace::from_json(trace_doc(1.0, 1.0, 5.0)), obs::SchemaError);
  // An interval may not end before it begins.
  EXPECT_THROW(RequestTrace::from_json(trace_doc(1.0, 0.0, -5.0)), obs::SchemaError);
  // No spans at all.
  Json empty = Json::object();
  empty.set("request_id", "x");
  empty.set("spans", Json::array());
  EXPECT_THROW(RequestTrace::from_json(empty), obs::SchemaError);
}

TEST(TraceSpan, GraftRebasesChildSpansUnderTheOpenSpan) {
  TraceBuilder parent("req-1");
  parent.open("region");
  parent.advance(50.0);

  TraceBuilder child("shard", "task[0]", 50.0);
  child.open("step");
  child.advance(25.0);
  parent.graft(child.finish());

  parent.advance(25.0);
  const RequestTrace t = parent.finish();
  ASSERT_EQ(t.spans.size(), 4u);  // request, region, task[0], step
  const obs::Span* task = t.find_span("task[0]");
  const obs::Span* step = t.find_span("step");
  ASSERT_NE(task, nullptr);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(task->parent, static_cast<std::int32_t>(t.find_span("region")->id));
  EXPECT_EQ(step->parent, static_cast<std::int32_t>(task->id));
  EXPECT_EQ(task->begin_cycles, 50.0);
  EXPECT_EQ(step->end_cycles, 75.0);
}

TEST(FlightRecorder, EvictsOldestOkTracesPastCapacity) {
  constexpr std::size_t kCap = FlightRecorder::kCompletedCapacity;
  FlightRecorder rec;
  for (std::size_t i = 0; i < kCap + 7; ++i)
    rec.record(ok_trace("req-" + std::to_string(i)));
  EXPECT_EQ(rec.completed_count(), kCap);
  const auto traces = rec.snapshot();
  ASSERT_EQ(traces.size(), kCap);
  EXPECT_EQ(traces.front().request_id, "req-7");
  EXPECT_EQ(traces.back().request_id, "req-" + std::to_string(kCap + 6));
}

TEST(FlightRecorder, OkChurnNeverEvictsErrorTraces) {
  constexpr std::size_t kCap = FlightRecorder::kCompletedCapacity;
  FlightRecorder rec;
  rec.record(error_trace("err-0"));
  for (std::size_t i = 0; i < 3 * kCap; ++i)
    rec.record(ok_trace("req-" + std::to_string(i)));
  rec.record(error_trace("err-1"));
  EXPECT_EQ(rec.error_count(), 2u);
  EXPECT_EQ(rec.completed_count(), kCap);

  // Snapshot interleaves by record order: err-0 first, err-1 last.
  const auto traces = rec.snapshot();
  ASSERT_EQ(traces.size(), kCap + 2);
  EXPECT_EQ(traces.front().request_id, "err-0");
  EXPECT_EQ(traces.back().request_id, "err-1");
}

TEST(FlightRecorder, ErrorStoreIsItsOwnBoundedRing) {
  constexpr std::size_t kCap = FlightRecorder::kErrorCapacity;
  FlightRecorder rec;
  for (std::size_t i = 0; i < kCap + 16; ++i)
    rec.record(error_trace("err-" + std::to_string(i)));
  EXPECT_EQ(rec.error_count(), kCap);
  EXPECT_EQ(rec.snapshot().front().request_id, "err-16");
}

TEST(FlightRecorder, DumpRoundTripsThroughTracesFromJson) {
  FlightRecorder rec;
  rec.record(ok_trace("req-1"));
  rec.record(error_trace("req-2", "deadline_exceeded"));
  const auto back = FlightRecorder::traces_from_json(rec.to_json());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].canonical_text(), ok_trace("req-1").canonical_text());
  EXPECT_TRUE(back[1].is_error());

  Json bad = rec.to_json();
  bad.set("schema", "something.else");
  EXPECT_THROW(FlightRecorder::traces_from_json(bad), obs::SchemaError);
  Json badver = rec.to_json();
  badver.set("schema_version", 999.0);
  EXPECT_THROW(FlightRecorder::traces_from_json(badver), obs::SchemaError);
}

// ThreadSanitizer CI target: concurrent recording and snapshotting must be
// race-free and never lose an error trace.
TEST(FlightRecorderConcurrency, ParallelRecordAndSnapshot) {
  FlightRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  // Every error trace fits the error store; the ok traces overflow their ring.
  constexpr std::size_t kErrorTraces = kThreads * kPerThread / 2;
  static_assert(kErrorTraces <= FlightRecorder::kErrorCapacity);
  static_assert(kErrorTraces > FlightRecorder::kCompletedCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id = std::to_string(t) + "-" + std::to_string(i);
        rec.record(i % 2 == 0 ? ok_trace("ok-" + id) : error_trace("err-" + id));
        if (i % 16 == 0) (void)rec.snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.error_count(), kErrorTraces);
  EXPECT_EQ(rec.completed_count(), FlightRecorder::kCompletedCapacity);

  // Every surviving trace is unique and sequence order is monotone.
  std::set<std::string> ids;
  for (const auto& t : rec.snapshot()) ids.insert(t.request_id);
  EXPECT_EQ(ids.size(), rec.size());
}

TEST(TraceSpan, ChromeExportIsWellFormedJson) {
  std::ostringstream os;
  obs::dump_chrome_traces(os, {ok_trace("req-1"), error_trace("req-2")});
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  // 1 process_name + 2x (thread_name + 2 spans) = 7 events.
  EXPECT_EQ(doc.at("traceEvents").size(), 7u);
}

}  // namespace
}  // namespace kami
