#ifndef LOCAT_MATH_MATRIX_H_
#define LOCAT_MATH_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace locat::math {

/// A dense column vector of doubles. Small, value-semantic, and sufficient
/// for the GP/KPCA workloads in this library (dimensions in the tens to low
/// thousands).
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Euclidean norm.
  double Norm() const;
  /// Dot product; sizes must match.
  double Dot(const Vector& other) const;

  Vector& operator-=(const Vector& other);
  friend Vector operator-(Vector a, const Vector& b) { return a -= b; }

 private:
  std::vector<double> data_;
};

/// A dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer lists; all rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Returns row `r` as a Vector.
  Vector Row(size_t r) const;
  /// Borrowed pointer to the `cols()` contiguous entries of row `r` —
  /// the allocation-free accessor hot loops use instead of Row().
  const double* RowData(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  double* RowData(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  /// Overwrites row `r`; sizes must match.
  void SetRow(size_t r, const Vector& v);

  /// Keeps the leading `rows` rows (added rows are zero). Shrinking never
  /// reallocates.
  void ResizeRows(size_t rows) {
    data_.resize(rows * cols_);
    rows_ = rows;
  }

  Matrix Transpose() const;

  /// Matrix-matrix product; inner dimensions must agree.
  Matrix operator*(const Matrix& other) const;
  /// Matrix-vector product; `v.size()` must equal `cols()`.
  Vector operator*(const Vector& v) const;

  /// Adds `value` to every diagonal entry (jitter / ridge term).
  void AddToDiagonal(double value);

  /// Max |a_ij - b_ij|; matrices must have equal shapes.
  double MaxAbsDiff(const Matrix& other) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace locat::math

#endif  // LOCAT_MATH_MATRIX_H_
