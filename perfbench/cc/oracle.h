// Answer checks. Setup verifies each query's answer once against an
// independent oracle (the pairwise hash-join engine, or the la:: CSR
// kernels) with a floating-point tolerance; every later response must then
// be byte-identical to that verified answer (the determinism contract).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>

#include "core/result.h"

namespace perfbench {

/// True when `got` and `want` hold the same rows up to row order: equal
/// shape and column types, equal integers and strings, and doubles within
/// `rel_tol` relative (absolute below magnitude 1). On a mismatch `why`
/// names the first differing cell.
bool SameAnswer(const levelheaded::QueryResult& got,
                const levelheaded::QueryResult& want, double rel_tol,
                std::string* why);

/// True when `a` and `b` are byte-identical: same rows in the same order,
/// doubles compared bit for bit.
bool SameBytes(const levelheaded::QueryResult& a,
               const levelheaded::QueryResult& b);

/// The part of a server response line that must not vary between runs of
/// one query: everything before its "timing" member.
std::string ResponseBody(const std::string& response_line);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
