#include "noise/noise_model.hpp"

#include <stdexcept>
#include <utility>

#include "arch/device_memo.hpp"

namespace qtc::noise {

void NoiseModel::add_all_qubit_error(SharedChannel channel, OpKind kind) {
  if (!channel) throw std::invalid_argument("noise: null channel");
  if (!op_is_unitary(kind))
    throw std::invalid_argument("noise: can only attach to unitary gates");
  if (channel->num_qubits != op_num_qubits(kind))
    throw std::invalid_argument("noise: channel/gate arity mismatch");
  all_qubit_[kind] = std::move(channel);
}

void NoiseModel::add_qubit_error(SharedChannel channel, OpKind kind,
                                 const std::vector<int>& qubits) {
  if (!channel) throw std::invalid_argument("noise: null channel");
  if (channel->num_qubits != op_num_qubits(kind) ||
      static_cast<int>(qubits.size()) != op_num_qubits(kind))
    throw std::invalid_argument("noise: channel/gate arity mismatch");
  per_qubit_[{kind, qubits}] = std::move(channel);
}

void NoiseModel::add_all_qubit_error(const KrausChannel& channel,
                                     OpKind kind) {
  add_all_qubit_error(std::make_shared<const KrausChannel>(channel), kind);
}

void NoiseModel::add_qubit_error(const KrausChannel& channel, OpKind kind,
                                 const std::vector<int>& qubits) {
  add_qubit_error(std::make_shared<const KrausChannel>(channel), kind,
                  qubits);
}

void NoiseModel::set_readout_error(int qubit, ReadoutError error) {
  readout_[qubit] = error;
}

const KrausChannel* NoiseModel::find_error(const Operation& op) const {
  auto specific = per_qubit_.find({op.kind, op.qubits});
  if (specific != per_qubit_.end()) return specific->second.get();
  auto general = all_qubit_.find(op.kind);
  if (general != all_qubit_.end()) return general->second.get();
  return nullptr;
}

std::optional<KrausChannel> NoiseModel::error_for(const Operation& op) const {
  const KrausChannel* channel = find_error(op);
  if (channel == nullptr) return std::nullopt;
  return *channel;
}

const ReadoutError* NoiseModel::readout_error(int qubit) const {
  auto it = readout_.find(qubit);
  return it == readout_.end() ? nullptr : &it->second;
}

int NoiseModel::apply_readout(int qubit, int value, Rng& rng) const {
  return sim::apply_readout(readout_error(qubit), value, rng);
}

namespace {

NoiseModel build_from_backend(const arch::Backend& backend) {
  NoiseModel model;
  const auto& cal = backend.calibration();
  const auto& map = backend.coupling_map();
  auto share = [](KrausChannel channel) {
    return std::make_shared<const KrausChannel>(std::move(channel));
  };
  // 1q gates: calibrated depolarizing composed with thermal relaxation over
  // the gate duration; one channel per qubit, shared by every 1q kind.
  for (int q = 0; q < backend.num_qubits(); ++q) {
    const SharedChannel ch =
        share(compose(depolarizing(cal.single_qubit_error[q]),
                      thermal_relaxation(cal.t1_us[q], cal.t2_us[q],
                                         cal.gate_time_1q_us)));
    for (OpKind kind : {OpKind::U, OpKind::U2, OpKind::P, OpKind::H,
                        OpKind::X, OpKind::T, OpKind::S, OpKind::RZ,
                        OpKind::RX, OpKind::RY, OpKind::SX, OpKind::SXdg})
      model.add_qubit_error(ch, kind, {q});
    model.set_readout_error(q,
                            {cal.readout_error[q], cal.readout_error[q]});
  }
  // 2q entanglers (CX and ECR): per-edge depolarizing composed with both
  // qubits relaxing over the (longer, per-edge when calibrated) two-qubit
  // gate duration; one channel per operand order, shared by both kinds.
  for (std::size_t e = 0; e < map.edges().size(); ++e) {
    const auto [a, b] = map.edges()[e];
    const double dur = e < cal.cx_duration_us.size() ? cal.cx_duration_us[e]
                                                     : cal.gate_time_cx_us;
    auto thermal_for = [&](int q) {
      return thermal_relaxation(cal.t1_us[q], cal.t2_us[q], dur);
    };
    const KrausChannel base = depolarizing2(cal.cx_error[e]);
    const SharedChannel fwd =
        share(compose(base, tensor(thermal_for(a), thermal_for(b))));
    const SharedChannel rev =
        share(compose(base, tensor(thermal_for(b), thermal_for(a))));
    for (OpKind kind : {OpKind::CX, OpKind::ECR}) {
      model.add_qubit_error(fwd, kind, {a, b});
      model.add_qubit_error(rev, kind, {b, a});
    }
  }
  return model;
}

}  // namespace

/// The memo holds one entry: the last device built. Every perfbench workload
/// that reaches from_backend sends it a single device, so one entry serves
/// them all; a miss replaces the entry. A replaced model's channels stay
/// alive while any copy handed out still references them.
NoiseModel from_backend(const arch::Backend& backend) {
  static arch::DeviceMemo<NoiseModel> memo;
  return *memo.get(backend, build_from_backend);
}

NoiseModel uniform_depolarizing(double p1, double p2, double readout) {
  NoiseModel model;
  const SharedChannel one =
      std::make_shared<const KrausChannel>(depolarizing(p1));
  for (OpKind kind : {OpKind::U, OpKind::U2, OpKind::P, OpKind::H, OpKind::X,
                      OpKind::Y, OpKind::Z, OpKind::S, OpKind::Sdg, OpKind::T,
                      OpKind::Tdg, OpKind::RX, OpKind::RY, OpKind::RZ})
    model.add_all_qubit_error(one, kind);
  const SharedChannel two =
      std::make_shared<const KrausChannel>(depolarizing2(p2));
  for (OpKind kind : {OpKind::CX, OpKind::CY, OpKind::CZ, OpKind::CH,
                      OpKind::SWAP, OpKind::ISWAP, OpKind::RZZ, OpKind::RXX,
                      OpKind::CRX, OpKind::CRY, OpKind::CRZ, OpKind::CP,
                      OpKind::CU})
    model.add_all_qubit_error(two, kind);
  if (readout > 0) {
    // Uniform symmetric readout error on a generous qubit range.
    for (int q = 0; q < 64; ++q)
      model.set_readout_error(q, {readout, readout});
  }
  return model;
}

}  // namespace qtc::noise
