#ifndef LOCAT_COMMON_TABLE_PRINTER_H_
#define LOCAT_COMMON_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace locat {

/// Renders fixed-width ASCII tables; every bench binary uses this so
/// figure/table reproductions print in a uniform, diff-friendly format.
///
/// Usage:
///   TablePrinter tp({"query", "CV"});
///   tp.AddRow({"Q72", "3.49"});
///   tp.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends one data row; short rows are padded with empty cells, long
  /// rows extend the column set.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats a double with `precision` digits after the point.
  static std::string Num(double value, int precision = 2);

  /// Writes the table with a header separator line.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner like "=== Figure 8: ... ===" so that concatenated
/// bench output stays navigable.
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace locat

#endif  // LOCAT_COMMON_TABLE_PRINTER_H_
