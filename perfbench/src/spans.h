// In-memory span log of a traced run. The benchmark records the spans
// itself, around its calls into each layer; nothing inside the program
// is instrumented for it.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// Seconds from the run's start.
  double start = 0.0;
  double end = 0.0;
  /// Index of the parent span in the log; -1 for a root.
  std::int64_t parent = -1;
  /// QueryHandle::id() of the query the span belongs to; 0 outside
  /// served queries (set-up, layer passes).
  std::uint64_t query_id = 0;
};

class SpanLog {
 public:
  /// Appends a span and returns its index (the parent id of children).
  std::int64_t Add(std::string name, double start, double end,
                   std::int64_t parent, std::uint64_t query_id = 0);

  /// Closes a span opened with a provisional end (a parent whose
  /// children are added before it ends).
  void SetEnd(std::int64_t id, double end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time (duration minus the durations of its children)
  /// per span name, seconds.
  std::map<std::string, double> SelfTimeByName() const;

  /// Writes the log as a JSON array, one span per line (times in us).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
