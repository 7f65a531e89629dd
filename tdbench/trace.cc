#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "stats.h"
#include "util/json.h"

namespace tdbench {

double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

void SpanLog::Record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

tdmatch::util::Status SpanLog::WriteJsonl(const std::string& path,
                                          const std::string& workload) const {
  const std::vector<Span> all = spans();
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) {
    return tdmatch::util::Status::IOError("cannot write " + path);
  }
  const size_t kept = std::min(all.size(), kMaxWrittenSpans);
  tdmatch::util::JsonWriter header;
  header.BeginObject()
      .Key("workload").Value(workload)
      .Key("spans_recorded").Value(static_cast<uint64_t>(all.size()))
      .Key("spans_written").Value(static_cast<uint64_t>(kept))
      .EndObject();
  std::fprintf(f.get(), "%s\n", header.str().c_str());
  for (size_t i = 0; i < kept; ++i) {
    const Span& s = all[i];
    tdmatch::util::JsonWriter w;
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("id").Value(s.id)
        .Key("parent").Value(s.parent)
        .Key("request").Value(s.request)
        .Key("start_ms").Value(s.start_ms)
        .Key("end_ms").Value(s.end_ms)
        .EndObject();
    std::fprintf(f.get(), "%s\n", w.str().c_str());
  }
  return tdmatch::util::Status::OK();
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
                       uint64_t request)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ms = NowMs();
}

void ScopedSpan::Close() {
  if (log_ == nullptr) return;
  span_.end_ms = NowMs();
  log_->Record(span_);
  log_ = nullptr;
}

std::map<std::string, LayerTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::vector<SpanInterval> intervals;
  intervals.reserve(spans.size());
  for (const Span& s : spans) {
    intervals.push_back({s.id, s.parent, s.start_ms, s.end_ms});
  }
  const std::vector<double> self = SelfTimesMs(intervals);
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].ms();
    t.self_ms += self[i];
  }
  return out;
}

}  // namespace tdbench
