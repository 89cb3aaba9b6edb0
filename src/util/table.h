// table.h - minimal ASCII table writer used by the benchmark harnesses to
// print the paper's tables (Figure 3 etc.) in a fixed, diffable format.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace softsched {

/// Column-aligned ASCII table. Rows are added as vectors of cells; the
/// writer pads every column to its widest cell. A separator row can be
/// inserted between logical groups (e.g. between benchmarks in Figure 3).
class table {
public:
  /// Sets the header row. Column count of all later rows must match.
  void set_header(std::vector<std::string> cells);

  /// Appends a data row. Throws precondition_error on column mismatch once
  /// a header has been set.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator at this position.
  void add_separator();

  /// Renders the table.
  void print(std::ostream& os) const;

private:
  struct row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> header_;
  std::vector<row> rows_;
};

/// Convenience: format an integer cell.
[[nodiscard]] std::string cell(long long value);

/// Convenience: format a double with the given precision.
[[nodiscard]] std::string cell(double value, int precision);

} // namespace softsched
