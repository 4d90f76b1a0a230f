#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query\tsession\tname\tparent\tstart_ns\tend_ns\n");
  for (size_t s = 0; s < logs.size(); ++s) {
    for (const Span& span : logs[s].spans()) {
      std::fprintf(f, "%lld\t%zu\t%s\t%s\t%lld\t%lld\n",
                   static_cast<long long>(span.query), s, span.name,
                   span.parent, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  // Nearest rank: the smallest value with at least p of the samples at or
  // below it.
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  size_t k = rank == 0 ? 0 : std::min(rank, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

int64_t CountAbove(const std::vector<double>& values, double threshold) {
  return std::count_if(values.begin(), values.end(),
                       [&](double v) { return v > threshold; });
}

}  // namespace perfbench
