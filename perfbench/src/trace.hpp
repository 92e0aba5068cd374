#pragma once
// In-memory spans around perfbench_driver's calls into quml's public functions.
//
// A span has a name ("json.parse", "sim.apply", ...), start and end on
// std::chrono::steady_clock, the span open around it when it began (its
// parent), and the job it belongs to.  Spans stay in memory and are written
// out once, at exit.  A Tracer is confined to one thread.  Untraced code
// paths pass a null Tracer* to span_if, whose scopes cost one branch.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (self_times); the layer metrics are medians
// of those self times per span name (self_time_by_name).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same span list, -1 for a root
  std::uint64_t job = 0;
};

/// Self time (ns) of every span, parallel to `spans`: duration minus the
/// union of its children's intervals clipped to the span.  Children may
/// overlap each other (concurrent work); the union is counted once.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Self times grouped by span name, in milliseconds.
std::map<std::string, std::vector<double>> self_time_by_name(const std::vector<Span>& spans);

std::int64_t now_ns();

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by Tracer::span, closed when the scope ends.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// Ends the span early (idempotent).
    void close();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  Scope span(const char* name, std::uint64_t job);
  /// A span on `tracer`, or a no-op scope when `tracer` is null.
  static Scope span_if(Tracer* tracer, const char* name, std::uint64_t job) {
    return tracer != nullptr ? tracer->span(name, job) : Scope(nullptr, -1);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// One JSON object per line: name, start_ns, end_ns, parent, job.
  void write_ndjson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
