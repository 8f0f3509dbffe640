#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

using levelheaded::QueryResult;
using levelheaded::ResultColumn;
using levelheaded::Value;

bool SameAnswer(const QueryResult& got, const QueryResult& want,
                double rel_tol, std::string* why) {
  if (got.num_rows != want.num_rows ||
      got.columns.size() != want.columns.size()) {
    *why = "shape " + std::to_string(got.num_rows) + "x" +
           std::to_string(got.columns.size()) + " vs " +
           std::to_string(want.num_rows) + "x" +
           std::to_string(want.columns.size());
    return false;
  }
  for (size_t c = 0; c < got.columns.size(); ++c) {
    if (got.columns[c].type != want.columns[c].type) {
      *why = "type of column " + got.columns[c].name;
      return false;
    }
  }
  QueryResult a = got, b = want;
  a.SortRows();
  b.SortRows();
  for (size_t r = 0; r < a.num_rows; ++r) {
    for (size_t c = 0; c < a.columns.size(); ++c) {
      const Value x = a.GetValue(r, static_cast<int>(c));
      const Value y = b.GetValue(r, static_cast<int>(c));
      bool same;
      if (levelheaded::IsRealType(a.columns[c].type)) {
        const double scale = std::max({1.0, std::fabs(x.AsReal()),
                                       std::fabs(y.AsReal())});
        same = std::fabs(x.AsReal() - y.AsReal()) <= rel_tol * scale;
      } else {
        same = x == y;
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " + a.columns[c].name +
               ": " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

bool SameBytes(const QueryResult& a, const QueryResult& b) {
  if (a.num_rows != b.num_rows || a.columns.size() != b.columns.size()) {
    return false;
  }
  for (size_t c = 0; c < a.columns.size(); ++c) {
    const ResultColumn& x = a.columns[c];
    const ResultColumn& y = b.columns[c];
    const bool reals_equal =
        x.reals.size() == y.reals.size() &&
        (x.reals.empty() ||
         std::memcmp(x.reals.data(), y.reals.data(),
                     x.reals.size() * sizeof(double)) == 0);
    if (x.name != y.name || x.type != y.type || x.ints != y.ints ||
        !reals_equal || x.strs != y.strs || x.codes != y.codes) {
      return false;
    }
  }
  return true;
}

std::string ResponseBody(const std::string& response_line) {
  return response_line.substr(0, response_line.find(",\"timing\":"));
}

}  // namespace perfbench
