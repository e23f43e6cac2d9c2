// Sim time-series sampler.
//
// Collects periodic per-entity snapshots (per-broker message rates, queue
// depth, bandwidth utilization) keyed by sim time and renders them as CSV
// for offline plotting. The simulator drives it from the event loop once
// Simulation::set_sample_interval_ms enables it; it stays completely inert
// otherwise so event counts and allocation decisions remain bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace greenps::obs {

class TimeSeriesSampler {
 public:
  struct Row {
    double time_s;
    std::uint64_t key;
    std::vector<double> values;
  };

  // `key_column` names the per-entity id column (e.g. "broker");
  // `value_columns` name the metrics appended per sample row.
  TimeSeriesSampler(std::string key_column, std::vector<std::string> value_columns);

  // Append one row: values.size() must equal the configured column count.
  void append(double time_s, std::uint64_t key, const std::vector<double>& values);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  // In-memory view for programmatic consumers (the elastic controller reads
  // load series straight off the simulator instead of re-parsing CSV).
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::string render_csv() const;
  bool write_csv(const std::string& path) const;
  void clear() { rows_.clear(); }

  // Move every row of `other` into this sampler (and clear `other`); the
  // sharded simulator reduces per-shard samplers into one stream this way.
  void absorb(TimeSeriesSampler& other);
  // Stable-sort rows by (time, key): canonical order after absorbing
  // shards, identical to what a single-shard run appends naturally.
  void sort_rows();

 private:
  std::string key_column_;
  std::vector<std::string> value_columns_;
  std::vector<Row> rows_;
};

}  // namespace greenps::obs
