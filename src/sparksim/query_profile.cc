#include "sparksim/query_profile.h"

namespace locat::sparksim {

int SparkSqlApp::IndexOf(const std::string& query_name) const {
  for (int i = 0; i < num_queries(); ++i) {
    if (queries[static_cast<size_t>(i)].name == query_name) return i;
  }
  return -1;
}

}  // namespace locat::sparksim
