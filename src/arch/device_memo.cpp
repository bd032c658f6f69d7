#include "arch/device_memo.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace qtc::arch {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return same_bits(x, y); });
}

}  // namespace

DeviceKey::DeviceKey(const Backend& backend)
    : num_qubits_(backend.num_qubits()),
      edges_(backend.coupling_map().edges()),
      cal_(backend.calibration()) {}

bool DeviceKey::matches(const Backend& backend) const {
  const Calibration& cal = backend.calibration();
  return num_qubits_ == backend.num_qubits() &&
         edges_ == backend.coupling_map().edges() &&
         same_bits(cal_.single_qubit_error, cal.single_qubit_error) &&
         same_bits(cal_.readout_error, cal.readout_error) &&
         same_bits(cal_.t1_us, cal.t1_us) && same_bits(cal_.t2_us, cal.t2_us) &&
         same_bits(cal_.cx_error, cal.cx_error) &&
         same_bits(cal_.cx_duration_us, cal.cx_duration_us) &&
         same_bits(cal_.gate_time_1q_us, cal.gate_time_1q_us) &&
         same_bits(cal_.gate_time_cx_us, cal.gate_time_cx_us);
}

}  // namespace qtc::arch
