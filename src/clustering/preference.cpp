#include "clustering/preference.hpp"

#include "util/check.hpp"

namespace autoncs::clustering {

double crossbar_utilization(std::size_t m, std::size_t s) {
  AUTONCS_CHECK(s > 0, "crossbar size must be positive");
  const double cap = static_cast<double>(s) * static_cast<double>(s);
  AUTONCS_CHECK(static_cast<double>(m) <= cap,
                "utilized connections cannot exceed crossbar capacity");
  return static_cast<double>(m) / cap;
}

double crossbar_preference(std::size_t m, std::size_t s, PreferenceKind kind) {
  const double u = crossbar_utilization(m, s);
  const double md = static_cast<double>(m);
  const double sd = static_cast<double>(s);
  switch (kind) {
    case PreferenceKind::kPaper: return (md / sd) * u;
    case PreferenceKind::kUtilization: return u;
    case PreferenceKind::kConnectionsPerRow: return md / sd;
  }
  return 0.0;
}

const char* enum_name(PreferenceKind kind) {
  switch (kind) {
    case PreferenceKind::kPaper: return "paper";
    case PreferenceKind::kUtilization: return "utilization";
    case PreferenceKind::kConnectionsPerRow: return "connections_per_row";
  }
  return "unknown";
}

}  // namespace autoncs::clustering
