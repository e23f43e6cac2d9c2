#include "obs/sampler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/report.hpp"

namespace greenps::obs {

TimeSeriesSampler::TimeSeriesSampler(std::string key_column,
                                     std::vector<std::string> value_columns)
    : key_column_(std::move(key_column)), value_columns_(std::move(value_columns)) {}

void TimeSeriesSampler::append(double time_s, std::uint64_t key,
                               const std::vector<double>& values) {
  assert(values.size() == value_columns_.size());
  rows_.push_back({time_s, key, values});
}

void TimeSeriesSampler::absorb(TimeSeriesSampler& other) {
  assert(other.value_columns_.size() == value_columns_.size());
  if (rows_.empty()) {
    rows_ = std::move(other.rows_);
  } else {
    rows_.reserve(rows_.size() + other.rows_.size());
    for (Row& r : other.rows_) rows_.push_back(std::move(r));
  }
  other.rows_.clear();
}

void TimeSeriesSampler::sort_rows() {
  std::stable_sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    return a.time_s != b.time_s ? a.time_s < b.time_s : a.key < b.key;
  });
}

std::string TimeSeriesSampler::render_csv() const {
  std::string out = "time_s," + key_column_;
  for (const auto& c : value_columns_) {
    out += ',';
    out += c;
  }
  out += '\n';
  char buf[64];
  for (const Row& row : rows_) {
    std::snprintf(buf, sizeof(buf), "%.6f,%llu", row.time_s,
                  static_cast<unsigned long long>(row.key));
    out += buf;
    for (const double v : row.values) {
      std::snprintf(buf, sizeof(buf), ",%.6g", v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

bool TimeSeriesSampler::write_csv(const std::string& path) const {
  const bool ok = write_text_file(path, render_csv());
  if (ok) {
    std::printf("wrote %s (%zu sample rows)\n", path.c_str(), rows_.size());
  }
  return ok;
}

}  // namespace greenps::obs
