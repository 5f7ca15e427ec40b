#include "spans.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

std::int64_t SpanLog::Add(std::string name, double start, double end,
                          std::int64_t parent, std::uint64_t query_id) {
  spans_.push_back({std::move(name), start, end, parent, query_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfTimeByName() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3) << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_us\":" << span.start * 1e6
        << ",\"end_us\":" << span.end * 1e6 << ",\"parent\":" << span.parent
        << ",\"query_id\":" << span.query_id << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
