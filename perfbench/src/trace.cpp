#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;  // everything before cursor is already counted
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, cursor);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<std::int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> self_time_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
  return out;
}

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  // Scopes nest lexically, so the span closing is the innermost open one.
  if (!tracer_->open_.empty() && tracer_->open_.back() == index_) tracer_->open_.pop_back();
  tracer_ = nullptr;
}

Tracer::Scope Tracer::span(const char* name, std::uint64_t job) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.job = job;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping stays outside the span
  return Scope(this, index);
}

void Tracer::write_ndjson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans_)
    std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,\"job\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.job));
  const bool ok = std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
