#include "bench_support/reporter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace dsg {

namespace {

/// The cell as printed: also its JSON text, except strings (unquoted here)
/// and non-finite doubles ("-" here, null in JSON).
std::string text(const Cell& cell) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return v;
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          if (!std::isfinite(v)) return "-";
          std::array<char, 32> buf{};
          std::snprintf(buf.data(), buf.size(), "%.6g", v);
          return buf.data();
        } else {
          return std::to_string(v);
        }
      },
      cell.value());
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::array<char, 8> buf{};
      std::snprintf(buf.data(), buf.size(), "\\u%04x",
                    static_cast<unsigned>(c));
      out << buf.data();
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_json(std::ostream& out, const Cell& cell) {
  const Cell::Value& v = cell.value();
  if (const auto* s = std::get_if<std::string>(&v)) {
    write_json_string(out, *s);
  } else if (const auto* d = std::get_if<double>(&v);
             d != nullptr && !std::isfinite(*d)) {
    out << "null";
  } else {
    out << text(cell);
  }
}

}  // namespace

void TableReporter::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TableReporter::add_row(std::vector<Cell> row) {
  rows_.push_back(std::move(row));
}

void TableReporter::add_footer(std::string line) {
  footers_.push_back(std::move(line));
}

void TableReporter::print(std::ostream& out) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Cell& cell : row) cells.push_back(text(cell));
    rows.push_back(std::move(cells));
  }

  // Column widths.
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  };
  widen(header_);
  for (const auto& row : rows) widen(row);

  std::size_t total = 0;
  for (std::size_t w : width) total += w + 3;

  out << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(width[c]) + 3) << row[c];
    }
    out << "\n";
  };
  if (!header_.empty()) {
    print_row(header_);
    out << std::string(total, '-') << "\n";
  }
  for (const auto& row : rows) print_row(row);
  if (!footers_.empty()) {
    out << std::string(total, '-') << "\n";
    for (const auto& line : footers_) out << line << "\n";
  }
  out.flush();
}

void TableReporter::print_json(std::ostream& out) const {
  out << "{";
  write_json_string(out, key_);
  out << ": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << (r ? ", {" : "{");
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) out << ", ";
      write_json_string(out, header_.at(c));
      out << ": ";
      write_json(out, rows_[r][c]);
    }
    out << "}";
  }
  out << "]}\n";
  out.flush();
}

std::string format_double(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

}  // namespace dsg
