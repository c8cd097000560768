// reporter.hpp — ASCII table / JSON output for the benchmark harness.
//
// Each Fig.-3/Fig.-4-style experiment prints one row per graph (sorted by
// ascending node count, as the paper's x-axes are) plus footer lines with
// the average factor the paper headlines.  Cells are typed, so the JSON
// form carries numbers as numbers; the unit lives in the column name
// (`fused_ms`, `qps`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace dsg {

/// One table cell: a string identifier, an integer count, a measured
/// double or a flag.
class Cell {
 public:
  using Value = std::variant<std::string, std::int64_t, double, bool>;

  Cell(std::string s) : value_(std::move(s)) {}
  Cell(const char* s) : value_(std::string(s)) {}
  Cell(double v) : value_(v) {}
  Cell(bool v) : value_(v) {}
  template <typename I, std::enable_if_t<std::is_integral_v<I> &&
                                             !std::is_same_v<I, bool>,
                                         int> = 0>
  Cell(I v) : value_(static_cast<std::int64_t>(v)) {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A column-aligned table with a JSON key, a title and footer lines.
class TableReporter {
 public:
  /// `key` names the table in the JSON output (and in BENCH_sssp.json);
  /// `title` heads the human-readable form.
  TableReporter(std::string key, std::string title)
      : key_(std::move(key)), title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<Cell> row);
  void add_footer(std::string line);

  /// Renders the aligned table, footers included.
  void print(std::ostream& out) const;

  /// Renders one line `{"<key>": [{"<column>": value, ...}, ...]}`:
  /// numbers unquoted, non-finite doubles as null, strings escaped.
  /// Footers are for humans and are left out.
  void print_json(std::ostream& out) const;

 private:
  std::string key_;
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<std::string> footers_;
};

/// Formats a double with `digits` fixed decimals.
std::string format_double(double value, int digits = 3);

}  // namespace dsg
