#pragma once
// Transpiler pass infrastructure: circuit-to-circuit rewrites composed into
// pipelines, mirroring Terra's transpiler described in the paper's Sec. III
// ("letting the transpiler find a more optimized circuit while maintaining
// the exact functionality prescribed by the user").
//
// A pass takes its input circuit by value and returns the rewritten circuit.
// Pipelines std::move the circuit from pass to pass, so one op vector flows
// through them and every op a pass keeps unchanged is moved, not copied; a
// caller that keeps its own circuit passes an lvalue and pays one copy.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/circuit.hpp"

namespace qtc::transpiler {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual QuantumCircuit run(QuantumCircuit circuit) const = 0;
};

class PassManager {
 public:
  PassManager& append(std::unique_ptr<Pass> pass) {
    passes_.push_back(std::move(pass));
    return *this;
  }
  template <typename P, typename... Args>
  PassManager& append(Args&&... args) {
    return append(std::make_unique<P>(std::forward<Args>(args)...));
  }

  QuantumCircuit run(QuantumCircuit circuit) const {
    for (const auto& pass : passes_) circuit = pass->run(std::move(circuit));
    return circuit;
  }

  std::vector<std::string> pass_names() const {
    std::vector<std::string> names;
    for (const auto& p : passes_) names.push_back(p->name());
    return names;
  }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace qtc::transpiler
