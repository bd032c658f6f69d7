#include "sim/result.hpp"

#include <sstream>

namespace qtc::sim {

std::string Counts::to_string(int bar_width) const {
  std::ostringstream os;
  int max_count = 0;
  for (const auto& [bits, c] : histogram) max_count = std::max(max_count, c);
  for (const auto& [bits, c] : histogram) {
    const int bar =
        max_count > 0 ? (c * bar_width + max_count - 1) / max_count : 0;
    os << bits << " : " << std::string(bar, '#') << " " << c << " ("
       << (shots ? 100.0 * c / shots : 0.0) << "%)\n";
  }
  return os.str();
}

std::string bits_key(const std::vector<int>& clbits) {
  const int ncl = static_cast<int>(clbits.size());
  std::string s(ncl, '0');
  for (int c = 0; c < ncl; ++c)
    if (clbits[c]) s[ncl - 1 - c] = '1';
  return s;
}

std::string measured_key(
    std::uint64_t basis,
    const std::vector<std::pair<int, int>>& qubit_to_clbit, int num_clbits) {
  std::string s(num_clbits, '0');
  for (auto [q, c] : qubit_to_clbit)
    if ((basis >> q) & 1) s[num_clbits - 1 - c] = '1';
  return s;
}

}  // namespace qtc::sim
