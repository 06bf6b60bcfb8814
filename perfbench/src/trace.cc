// Copyright 2026 MixQ-GNN Authors
#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

namespace {

std::atomic<uint64_t> g_next_tracer_serial{1};

// The calling thread's buffer in the tracer with serial `serial`, if any.
struct ThreadBufferCache {
  uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadBufferCache t_cache;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), serial_(g_next_tracer_serial.fetch_add(1)) {}

Tracer::Buffer* Tracer::LocalBuffer() {
  if (t_cache.serial == serial_) return static_cast<Buffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->spans.reserve(4096);
  t_cache = ThreadBufferCache{serial_, buffer};
  return buffer;
}

uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::AddWithId(uint64_t id, const std::string& name, int64_t start_ns,
                       int64_t end_ns, uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  Buffer* buffer = LocalBuffer();
  buffer->spans.push_back(Span{id, parent, request, name, start_ns, end_ns});
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      parent_(parent),
      request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewId();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->AddWithId(id_, name_, start_ns_, NowNs(), parent_, request_);
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back({span.start_ns, span.end_ns});
  }
  std::map<std::string, SelfTime> out;
  for (const Span& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> kids = it->second;
      std::sort(kids.begin(), kids.end());
      // Union of the child intervals, clipped to the parent's.
      int64_t run_start = 0, run_end = 0;
      bool open = false;
      for (auto [s, e] : kids) {
        s = std::max(s, span.start_ns);
        e = std::min(e, span.end_ns);
        if (e <= s) continue;
        if (open && s <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    SelfTime& entry = out[span.name];
    entry.count += 1;
    entry.total_ms += static_cast<double>(duration) * 1e-6;
    entry.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
