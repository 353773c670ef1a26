#include "math/matrix.h"

#include <cmath>

#include "math/kern/kern.h"

namespace locat::math {

double Vector::Norm() const {
  return std::sqrt(kern::Dot(data_.data(), data_.data(), size()));
}

double Vector::Dot(const Vector& other) const {
  assert(size() == other.size());
  return kern::Dot(data_.data(), other.data_.data(), size());
}

Vector& Vector::operator-=(const Vector& other) {
  assert(size() == other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t r) const {
  assert(r < rows_);
  Vector v(cols_);
  for (size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  assert(r < rows_ && v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  kern::Gemm(data_.data(), rows_, cols_, other.data_.data(), other.cols_,
             out.data_.data());
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_);
  kern::MatVecRowMajor(data_.data(), rows_, cols_, v.data().data(),
                       out.data().data());
  return out;
}

void Matrix::AddToDiagonal(double value) {
  size_t n = rows_ < cols_ ? rows_ : cols_;
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    double d = std::fabs(data_[i] - other.data_[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace locat::math
