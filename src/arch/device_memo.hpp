#pragma once
// One-entry memo for values derived from a backend's device description,
// such as a calibration noise model or a routing cost table. Each derived
// value is a pure function of the device, and every workload so far sends a
// given memo one device, so the entry is built once and then shared.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arch/backend.hpp"

namespace qtc::arch {

/// An exact snapshot of the device description a derived value may read:
/// the qubit count, the coupling edges and the full calibration. Doubles
/// compare by bit pattern, so a key only matches a backend from which the
/// identical value would be rebuilt.
class DeviceKey {
 public:
  DeviceKey() = default;
  explicit DeviceKey(const Backend& backend);
  bool matches(const Backend& backend) const;

 private:
  int num_qubits_ = 0;
  std::vector<std::pair<int, int>> edges_;
  Calibration cal_;
};

/// Holds the last value built, keyed on its device. A hit returns the held
/// pointer. A miss builds outside the lock; a concurrent builder for the
/// same device that stored first wins, and this call adopts its value. A
/// miss then replaces the entry; a replaced value stays alive while any
/// pointer handed out still references it. Thread-safe.
template <class T>
class DeviceMemo {
 public:
  template <class Build>
  std::shared_ptr<const T> get(const Backend& backend, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (value_ && key_.matches(backend)) return value_;
    }
    auto built = std::make_shared<const T>(build(backend));
    DeviceKey fresh(backend);
    std::shared_ptr<const T> replaced;  // freed after the unlock
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ && key_.matches(backend)) return value_;
    key_ = std::move(fresh);
    replaced = std::exchange(value_, built);
    return built;
  }

 private:
  std::mutex mu_;
  DeviceKey key_;
  std::shared_ptr<const T> value_;
};

}  // namespace qtc::arch
