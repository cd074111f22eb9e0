#include "common/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/fileio.hpp"
#include "common/json.hpp"

namespace bepi {

std::atomic<bool> Tracing::enabled_{false};

namespace {

using internal::TraceEvent;

using Clock = std::chrono::steady_clock;

/// Completed spans of one thread. Owned jointly by the thread (via a
/// thread_local shared_ptr) and the global registry, so events survive
/// thread exit until exported.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  int tid = 0;
};

struct Recorder {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
  Clock::time_point epoch = Clock::now();
};

Recorder& GlobalRecorder() {
  static Recorder* const recorder = new Recorder();
  return *recorder;
}

ThreadBuffer& ThisThreadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Recorder& recorder = GlobalRecorder();
    std::lock_guard<std::mutex> lock(recorder.mutex);
    b->tid = recorder.next_tid++;
    recorder.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - GlobalRecorder().epoch)
          .count());
}

/// Depth of the calling thread's open-span stack; owner-thread only.
thread_local int t_depth = 0;

void AppendEvent(std::ostream& out, const TraceEvent& event, int tid,
                 bool* first) {
  out << (*first ? "\n  " : ",\n  ");
  *first = false;
  out << "{\"name\": ";
  out << JsonQuote(event.name);
  out << ", \"ph\": \"X\", \"ts\": " << event.start_us
      << ", \"dur\": " << event.dur_us << ", \"pid\": 1, \"tid\": " << tid
      << ", \"args\": {";
  bool first_arg = true;
  for (const auto& [key, value] : event.args) {
    if (!first_arg) out << ", ";
    first_arg = false;
    out << JsonQuote(key) << ": " << JsonQuote(value);
  }
  if (!first_arg) out << ", ";
  out << "\"depth\": \"" << event.depth << "\"}}";
}

}  // namespace

void Tracing::Start() {
  Recorder& recorder = GlobalRecorder();
  {
    std::lock_guard<std::mutex> lock(recorder.mutex);
    recorder.epoch = Clock::now();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracing::Stop() { enabled_.store(false, std::memory_order_relaxed); }

Status Tracing::WriteChromeTrace(std::ostream& out) {
  Recorder& recorder = GlobalRecorder();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(recorder.mutex);
    for (const auto& buffer : recorder.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      for (const TraceEvent& event : buffer->events) {
        AppendEvent(out, event, buffer->tid, &first);
      }
    }
  }
  out << (first ? "]" : "\n]") << "}\n";
  if (!out) return Status::IoError("failed writing Chrome trace stream");
  return Status::Ok();
}

Status Tracing::WriteChromeTraceFile(const std::string& path) {
  AtomicFileWriter writer(path);
  BEPI_RETURN_IF_ERROR(writer.status());
  BEPI_RETURN_IF_ERROR(WriteChromeTrace(writer.stream()));
  return writer.Commit();
}

void Tracing::Clear() {
  Recorder& recorder = GlobalRecorder();
  std::lock_guard<std::mutex> lock(recorder.mutex);
  for (const auto& buffer : recorder.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<internal::TraceEvent> Tracing::ThisThreadEvents() {
  ThreadBuffer& buffer = ThisThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  return buffer.events;
}

void TraceSpan::Begin(const char* name) {
  active_ = true;
  event_.name = name;
  event_.depth = t_depth++;
  event_.start_us = NowMicros();
}

void TraceSpan::End() {
  const std::uint64_t end_us = NowMicros();
  event_.dur_us = end_us >= event_.start_us ? end_us - event_.start_us : 0;
  --t_depth;
  ThreadBuffer& buffer = ThisThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event_));
  active_ = false;
}

void TraceSpan::Arg(const char* key, const std::string& value) {
  if (!active_) return;
  event_.args.emplace_back(key, value);
}

void TraceSpan::Arg(const char* key, std::int64_t value) {
  if (!active_) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  event_.args.emplace_back(key, buf);
}

void TraceSpan::Arg(const char* key, double value) {
  if (!active_) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  event_.args.emplace_back(key, buf);
}

}  // namespace bepi
