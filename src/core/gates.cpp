#include "core/gates.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace qtc {

namespace {

struct OpInfo {
  const char* name;
  int qubits;
  int params;
};

/// Indexed by OpKind, in enum order.
constexpr std::array<OpInfo, static_cast<std::size_t>(OpKind::ECR) + 1>
    kOpInfo = {{
        {"id", 1, 0},      {"x", 1, 0},       {"y", 1, 0},
        {"z", 1, 0},       {"h", 1, 0},       {"s", 1, 0},
        {"sdg", 1, 0},     {"t", 1, 0},       {"tdg", 1, 0},
        {"sx", 1, 0},      {"sxdg", 1, 0},    {"rx", 1, 1},
        {"ry", 1, 1},      {"rz", 1, 1},      {"p", 1, 1},
        {"u2", 1, 2},      {"u", 1, 3},       {"cx", 2, 0},
        {"cy", 2, 0},      {"cz", 2, 0},      {"ch", 2, 0},
        {"crx", 2, 1},     {"cry", 2, 1},     {"crz", 2, 1},
        {"cp", 2, 1},      {"cu", 2, 3},      {"swap", 2, 0},
        {"iswap", 2, 0},   {"rzz", 2, 1},     {"rxx", 2, 1},
        {"ccx", 3, 0},     {"cswap", 3, 0},   {"measure", 1, 0},
        {"reset", 1, 0},   {"barrier", 0, 0}, {"ecr", 2, 0},
    }};
// Every kind up to ECR has an entry: a missing trailing entry would be
// zero-initialized, with a null name.
static_assert(kOpInfo.back().name != nullptr,
              "kOpInfo must cover every OpKind up to ECR");

const OpInfo& info(OpKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= kOpInfo.size()) throw std::out_of_range("unknown op kind");
  return kOpInfo[index];
}

}  // namespace

const char* op_name(OpKind kind) { return info(kind).name; }

std::optional<OpKind> op_from_name(const std::string& name) {
  static const std::unordered_map<std::string, OpKind> table = [] {
    std::unordered_map<std::string, OpKind> t;
    for (int k = 0; k <= static_cast<int>(OpKind::ECR); ++k) {
      const auto kind = static_cast<OpKind>(k);
      t.emplace(op_name(kind), kind);
    }
    // Common aliases (OpenQASM / literature).
    t.emplace("u1", OpKind::P);
    t.emplace("u3", OpKind::U);
    t.emplace("cu1", OpKind::CP);
    t.emplace("cu3", OpKind::CU);
    t.emplace("cnot", OpKind::CX);
    t.emplace("toffoli", OpKind::CCX);
    t.emplace("fredkin", OpKind::CSWAP);
    t.emplace("phase", OpKind::P);
    return t;
  }();
  auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

int op_num_qubits(OpKind kind) { return info(kind).qubits; }
int op_num_params(OpKind kind) { return info(kind).params; }

bool op_is_multi_qubit(OpKind kind) { return op_num_qubits(kind) >= 2; }

Matrix u3_matrix(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const cplx el = std::exp(cplx(0, lambda));
  const cplx ep = std::exp(cplx(0, phi));
  return Matrix{{c, -el * s}, {ep * s, ep * el * c}};
}

namespace {

/// 4x4 matrix of a controlled-1q gate: control is the first listed qubit,
/// which occupies the LEAST significant gate-local bit (see op_matrix docs).
Matrix controlled(const Matrix& u) {
  Matrix m = Matrix::identity(4);
  m(1, 1) = u(0, 0);
  m(1, 3) = u(0, 1);
  m(3, 1) = u(1, 0);
  m(3, 3) = u(1, 1);
  return m;
}

void expect_params(OpKind kind, const std::vector<double>& params) {
  if (static_cast<int>(params.size()) != op_num_params(kind))
    throw std::invalid_argument(std::string("gate ") + op_name(kind) +
                                ": wrong parameter count");
}

}  // namespace

Matrix op_matrix(OpKind kind, const std::vector<double>& params) {
  expect_params(kind, params);
  const cplx i{0, 1};
  switch (kind) {
    case OpKind::I:
      return Matrix::identity(2);
    case OpKind::X:
      return Matrix{{0, 1}, {1, 0}};
    case OpKind::Y:
      return Matrix{{0, -i}, {i, 0}};
    case OpKind::Z:
      return Matrix{{1, 0}, {0, -1}};
    case OpKind::H:
      return Matrix{{SQRT1_2, SQRT1_2}, {SQRT1_2, -SQRT1_2}};
    case OpKind::S:
      return Matrix{{1, 0}, {0, i}};
    case OpKind::Sdg:
      return Matrix{{1, 0}, {0, -i}};
    case OpKind::T:
      return Matrix{{1, 0}, {0, std::exp(i * (PI / 4))}};
    case OpKind::Tdg:
      return Matrix{{1, 0}, {0, std::exp(-i * (PI / 4))}};
    case OpKind::SX:
      return Matrix{{0.5 * cplx(1, 1), 0.5 * cplx(1, -1)},
                    {0.5 * cplx(1, -1), 0.5 * cplx(1, 1)}};
    case OpKind::SXdg:
      return Matrix{{0.5 * cplx(1, -1), 0.5 * cplx(1, 1)},
                    {0.5 * cplx(1, 1), 0.5 * cplx(1, -1)}};
    case OpKind::RX: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return Matrix{{c, -i * s}, {-i * s, c}};
    }
    case OpKind::RY: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return Matrix{{c, -s}, {s, c}};
    }
    case OpKind::RZ: {
      const cplx e = std::exp(-i * (params[0] / 2));
      return Matrix{{e, 0}, {0, std::conj(e)}};
    }
    case OpKind::P:
      return Matrix{{1, 0}, {0, std::exp(i * params[0])}};
    case OpKind::U2:
      return u3_matrix(PI / 2, params[0], params[1]);
    case OpKind::U:
      return u3_matrix(params[0], params[1], params[2]);
    case OpKind::CX:
      return controlled(op_matrix(OpKind::X));
    case OpKind::CY:
      return controlled(op_matrix(OpKind::Y));
    case OpKind::CZ:
      return controlled(op_matrix(OpKind::Z));
    case OpKind::CH:
      return controlled(op_matrix(OpKind::H));
    case OpKind::CRX:
      return controlled(op_matrix(OpKind::RX, params));
    case OpKind::CRY:
      return controlled(op_matrix(OpKind::RY, params));
    case OpKind::CRZ:
      return controlled(op_matrix(OpKind::RZ, params));
    case OpKind::CP:
      return controlled(op_matrix(OpKind::P, params));
    case OpKind::CU:
      return controlled(u3_matrix(params[0], params[1], params[2]));
    case OpKind::SWAP:
      return Matrix{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
    case OpKind::ISWAP:
      return Matrix{{1, 0, 0, 0}, {0, 0, i, 0}, {0, i, 0, 0}, {0, 0, 0, 1}};
    case OpKind::RZZ: {
      const cplx e = std::exp(-i * (params[0] / 2));
      const cplx f = std::conj(e);
      Matrix m(4, 4);
      m(0, 0) = e;
      m(1, 1) = f;
      m(2, 2) = f;
      m(3, 3) = e;
      return m;
    }
    case OpKind::RXX: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      Matrix m = Matrix::identity(4) * cplx(c, 0);
      m(0, 3) = -i * s;
      m(1, 2) = -i * s;
      m(2, 1) = -i * s;
      m(3, 0) = -i * s;
      return m;
    }
    case OpKind::CCX: {
      Matrix m = Matrix::identity(8);
      // Controls in bits 0 and 1, target in bit 2: |011> <-> |111>.
      m(3, 3) = 0;
      m(7, 7) = 0;
      m(3, 7) = 1;
      m(7, 3) = 1;
      return m;
    }
    case OpKind::CSWAP: {
      Matrix m = Matrix::identity(8);
      // Control in bit 0; swap bits 1 and 2: |011> <-> |101>.
      m(3, 3) = 0;
      m(5, 5) = 0;
      m(3, 5) = 1;
      m(5, 3) = 1;
      return m;
    }
    case OpKind::ECR: {
      // 1/sqrt(2) (I(x)X - X(x)Y) with the first listed qubit in the LEAST
      // significant bit: rows/cols ordered |q1 q0> = 00, 01, 10, 11.
      Matrix m(4, 4);
      m(0, 1) = SQRT1_2;
      m(0, 3) = i * SQRT1_2;
      m(1, 0) = SQRT1_2;
      m(1, 2) = -i * SQRT1_2;
      m(2, 1) = i * SQRT1_2;
      m(2, 3) = SQRT1_2;
      m(3, 0) = -i * SQRT1_2;
      m(3, 2) = SQRT1_2;
      return m;
    }
    case OpKind::Measure:
    case OpKind::Reset:
    case OpKind::Barrier:
      throw std::invalid_argument("op_matrix: non-unitary operation");
  }
  throw std::logic_error("op_matrix: unknown kind");
}

std::pair<OpKind, std::vector<double>> op_inverse(
    OpKind kind, const std::vector<double>& params) {
  expect_params(kind, params);
  switch (kind) {
    case OpKind::I:
    case OpKind::X:
    case OpKind::Y:
    case OpKind::Z:
    case OpKind::H:
    case OpKind::CX:
    case OpKind::CY:
    case OpKind::CZ:
    case OpKind::CH:
    case OpKind::SWAP:
    case OpKind::CCX:
    case OpKind::CSWAP:
    case OpKind::ECR:  // Hermitian (anticommuting Pauli terms): ECR^2 = I
      return {kind, {}};
    case OpKind::S:
      return {OpKind::Sdg, {}};
    case OpKind::Sdg:
      return {OpKind::S, {}};
    case OpKind::T:
      return {OpKind::Tdg, {}};
    case OpKind::Tdg:
      return {OpKind::T, {}};
    case OpKind::SX:
      return {OpKind::SXdg, {}};
    case OpKind::SXdg:
      return {OpKind::SX, {}};
    case OpKind::RX:
    case OpKind::RY:
    case OpKind::RZ:
    case OpKind::P:
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CRZ:
    case OpKind::CP:
    case OpKind::RZZ:
    case OpKind::RXX:
      return {kind, {-params[0]}};
    case OpKind::U2:
      // u2(phi, lambda)^-1 = U(-pi/2, -lambda, -phi)
      return {OpKind::U, {-PI / 2, -params[1], -params[0]}};
    case OpKind::U:
      return {OpKind::U, {-params[0], -params[2], -params[1]}};
    case OpKind::CU:
      return {OpKind::CU, {-params[0], -params[2], -params[1]}};
    case OpKind::ISWAP:
    case OpKind::Measure:
    case OpKind::Reset:
    case OpKind::Barrier:
      throw std::invalid_argument(std::string("op_inverse: unsupported for ") +
                                  op_name(kind));
  }
  throw std::logic_error("op_inverse: unknown kind");
}

EulerAngles zyz_decompose(const Matrix& m) {
  if (m.rows() != 2 || m.cols() != 2)
    throw std::invalid_argument("zyz_decompose: expected 2x2 matrix");
  EulerAngles a{};
  const double m00 = std::abs(m(0, 0)), m10 = std::abs(m(1, 0));
  a.theta = 2 * std::atan2(m10, m00);
  const double tol = 1e-12;
  if (m10 <= tol) {  // theta ~ 0: diagonal matrix
    a.theta = 0;
    a.phase = std::arg(m(0, 0));
    a.phi = std::arg(m(1, 1)) - a.phase;
    a.lambda = 0;
  } else if (m00 <= tol) {  // theta ~ pi: anti-diagonal matrix
    a.theta = PI;
    a.phi = 0;
    a.phase = std::arg(m(1, 0));
    a.lambda = std::arg(-m(0, 1)) - a.phase;
  } else {
    a.phase = std::arg(m(0, 0));
    a.phi = std::arg(m(1, 0)) - a.phase;
    a.lambda = std::arg(-m(0, 1)) - a.phase;
  }
  return a;
}

}  // namespace qtc
