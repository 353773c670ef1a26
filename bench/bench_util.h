#ifndef LOCAT_BENCH_BENCH_UTIL_H_
#define LOCAT_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "harness/experiments.h"

namespace locat::bench {

inline std::string Num(double v, int precision = 2) {
  return TablePrinter::Num(v, precision);
}

}  // namespace locat::bench

#endif  // LOCAT_BENCH_BENCH_UTIL_H_
