#include "common/flightrec.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/fileio.hpp"
#include "common/json.hpp"

namespace bepi {

std::atomic<bool> FlightRecorder::enabled_{false};

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kStringBytes = 24;  // incl. NUL; 3 atomic words
constexpr std::size_t kStringWords = kStringBytes / sizeof(std::uint64_t);
constexpr std::size_t kDefaultThreadBudgetBytes = 32 * 1024;
constexpr std::size_t kMinSlots = 16;

/// One seqlock-guarded event slot. Every field is a relaxed atomic so a
/// concurrent Snapshot() is data-race-free; `seq` odd means the writer is
/// mid-update and the reader skips the slot.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::int64_t> ts_ns{0};
  std::atomic<std::uint64_t> type{0};
  std::atomic<std::int64_t> arg{0};
  std::atomic<std::uint64_t> request_id[kStringWords];
  std::atomic<std::uint64_t> detail[kStringWords];
};

/// One thread's ring. Owned jointly by the thread (thread_local
/// shared_ptr) and the global registry so events survive thread exit
/// until dumped — same lifetime scheme as the tracing ThreadBuffer.
struct Ring {
  explicit Ring(std::size_t slot_count) : slots(slot_count) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> next{0};    // total events ever written
  std::atomic<std::uint64_t> skipped{0}; // torn slots seen by readers
  int tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;
  int next_tid = 1;
  Clock::time_point epoch = Clock::now();
  std::atomic<std::size_t> budget_bytes{kDefaultThreadBudgetBytes};
};

Registry& GlobalRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

Ring& ThisThreadRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    Registry& registry = GlobalRegistry();
    const std::size_t budget =
        registry.budget_bytes.load(std::memory_order_relaxed);
    const std::size_t slot_count =
        std::max(kMinSlots, budget / sizeof(Slot));
    auto r = std::make_shared<Ring>(slot_count);
    std::lock_guard<std::mutex> lock(registry.mutex);
    r->tid = registry.next_tid++;
    registry.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - GlobalRegistry().epoch)
      .count();
}

void StoreString(std::atomic<std::uint64_t>* words, const char* s) {
  char buf[kStringBytes];
  std::memset(buf, 0, sizeof(buf));
  if (s != nullptr) {
    std::size_t n = std::strlen(s);
    if (n > kStringBytes - 1) n = kStringBytes - 1;
    std::memcpy(buf, s, n);
  }
  for (std::size_t w = 0; w < kStringWords; ++w) {
    std::uint64_t word;
    std::memcpy(&word, buf + w * sizeof(word), sizeof(word));
    words[w].store(word, std::memory_order_relaxed);
  }
}

std::string LoadString(const std::atomic<std::uint64_t>* words) {
  char buf[kStringBytes];
  for (std::size_t w = 0; w < kStringWords; ++w) {
    const std::uint64_t word = words[w].load(std::memory_order_relaxed);
    std::memcpy(buf + w * sizeof(word), &word, sizeof(word));
  }
  buf[kStringBytes - 1] = '\0';
  return std::string(buf);
}

/// Seqlock read of one slot. Returns false on a torn/never-written slot.
bool ReadSlot(const Slot& slot, FlightEvent* out) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) {
      if (s1 == 0) return false;
      continue;  // writer mid-update; retry
    }
    out->ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    out->type = static_cast<FlightEventType>(
        slot.type.load(std::memory_order_relaxed));
    out->arg = slot.arg.load(std::memory_order_relaxed);
    out->request_id = LoadString(slot.request_id);
    out->detail = LoadString(slot.detail);
    // Seqlock read exit: the payload loads above must complete before the
    // confirming seq re-read. Every payload word is a relaxed atomic, so
    // there is no data race either way; the fence only enforces ordering.
    // GCC's TSan does not support atomic_thread_fence (-Werror=tsan), so
    // under TSan the re-read itself carries the acquire.
#if defined(__SANITIZE_THREAD__)
    if (slot.seq.load(std::memory_order_acquire) == s1) return true;
#else
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == s1) return true;
#endif
  }
  return false;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kAdmit:
      return "admit";
    case FlightEventType::kShed:
      return "shed";
    case FlightEventType::kStageHop:
      return "stage_hop";
    case FlightEventType::kCancel:
      return "cancel";
    case FlightEventType::kDeadline:
      return "deadline";
    case FlightEventType::kFault:
      return "fault";
    case FlightEventType::kWatchdog:
      return "watchdog";
    case FlightEventType::kSlowQuery:
      return "slow_query";
    case FlightEventType::kComplete:
      return "complete";
    case FlightEventType::kShutdown:
      return "shutdown";
    case FlightEventType::kDump:
      return "dump";
  }
  return "unknown";
}

void FlightRecorder::SetEnabled(bool on) {
  if (on) {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.epoch = Clock::now();
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void FlightRecorder::SetThreadBudgetBytes(std::size_t bytes) {
  GlobalRegistry().budget_bytes.store(bytes, std::memory_order_relaxed);
}

std::size_t FlightRecorder::ThreadBudgetBytes() {
  return GlobalRegistry().budget_bytes.load(std::memory_order_relaxed);
}

void FlightRecorder::Record(FlightEventType type, const char* request_id,
                            const char* detail, std::int64_t arg) {
  Ring& ring = ThisThreadRing();
  const std::uint64_t index =
      ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[index % ring.slots.size()];
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq | 1, std::memory_order_release);
  slot.ts_ns.store(NowNs(), std::memory_order_relaxed);
  slot.type.store(static_cast<std::uint64_t>(type),
                  std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  StoreString(slot.request_id, request_id);
  StoreString(slot.detail, detail);
  slot.seq.store((seq | 1) + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() {
  std::vector<FlightEvent> events;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) {
    const std::size_t cap = ring->slots.size();
    const std::uint64_t written = ring->next.load(std::memory_order_acquire);
    const std::uint64_t live = written < cap ? written : cap;
    for (std::uint64_t i = 0; i < live; ++i) {
      FlightEvent event;
      if (!ReadSlot(ring->slots[i], &event)) {
        ring->skipped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      event.tid = ring->tid;
      events.push_back(std::move(event));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

std::uint64_t FlightRecorder::DroppedEvents() {
  std::uint64_t dropped = 0;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) {
    const std::uint64_t written = ring->next.load(std::memory_order_relaxed);
    const std::uint64_t cap = ring->slots.size();
    if (written > cap) dropped += written - cap;
    dropped += ring->skipped.load(std::memory_order_relaxed);
  }
  return dropped;
}

Status FlightRecorder::DumpJson(std::ostream& out) {
  const std::vector<FlightEvent> events = Snapshot();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const FlightEvent& event : events) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    out << "{\"name\": ";
    out << JsonQuote(FlightEventTypeName(event.type));
    // Instant events ("ph":"i", thread scope) load in Perfetto/Chrome as
    // one marker per event on the recorder thread's row.
    out << ", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << event.ts_ns / 1000
        << ", \"pid\": 1, \"tid\": " << event.tid << ", \"args\": {";
    char buf[32];
    out << "\"request_id\": " << JsonQuote(event.request_id)
        << ", \"detail\": " << JsonQuote(event.detail);
    std::snprintf(buf, sizeof(buf), "%" PRId64, event.arg);
    out << ", \"arg\": \"" << buf << "\"";
    std::snprintf(buf, sizeof(buf), "%" PRId64, event.ts_ns);
    out << ", \"ts_ns\": \"" << buf << "\"}}";
  }
  const std::uint64_t dropped = DroppedEvents();
  if (dropped > 0) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    out << "{\"name\": \"flightrec.dropped\", \"ph\": \"i\", \"s\": \"g\", "
           "\"ts\": 0, \"pid\": 1, \"tid\": 0, \"args\": {\"dropped\": \""
        << dropped << "\"}}";
  }
  out << (first ? "]" : "\n]") << "}\n";
  if (!out) return Status::IoError("failed writing flight-recorder dump");
  return Status::Ok();
}

Status FlightRecorder::DumpJsonFile(const std::string& path) {
  AtomicFileWriter writer(path);
  BEPI_RETURN_IF_ERROR(writer.status());
  BEPI_RETURN_IF_ERROR(DumpJson(writer.stream()));
  return writer.Commit();
}

void FlightRecorder::ResetForTest() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) {
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_relaxed);
    ring->skipped.store(0, std::memory_order_relaxed);
  }
  registry.epoch = Clock::now();
}

}  // namespace bepi
