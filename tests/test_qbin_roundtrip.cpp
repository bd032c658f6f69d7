// QBIN round-trip property suite: the wire format's losslessness contract.
// For 500+ seeded random circuits over the FULL instruction vocabulary
// (every OpKind, multi-register layouts, conditionals, measure/reset/
// barrier, and parameter values from the nasty end of the IEEE range —
// denormals, -0.0, huge magnitudes), decode(encode(c)) must equal c under
// QuantumCircuit::operator== (exact double comparison), and pushing a
// circuit through qasm → qbin → qasm must be a fixed point of the QASM
// spelling. Also pinned here: the streaming Reader decodes byte-identically
// to the in-memory path at any chunk size, and the structural digest is
// parameter-blind, payload-computable, and structure-sensitive.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "core/circuit.hpp"
#include "core/gates.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "qasm/parser.hpp"
#include "qbin/qbin.hpp"

namespace qtc {
namespace {

std::vector<OpKind> unitary_kinds() {
  std::vector<OpKind> kinds;
  for (int k = static_cast<int>(OpKind::I);
       k <= static_cast<int>(OpKind::CSWAP); ++k)
    kinds.push_back(static_cast<OpKind>(k));
  return kinds;
}

std::vector<Qubit> distinct_qubits(Rng& rng, int n, int count) {
  std::vector<Qubit> pool(n);
  for (int i = 0; i < n; ++i) pool[i] = i;
  for (int i = 0; i < count; ++i)
    std::swap(pool[i], pool[i + rng.index(n - i)]);
  pool.resize(count);
  return pool;
}

/// A parameter value drawn mostly from ordinary rotation angles but with a
/// deliberate tail of IEEE edge cases the %.17g path already survives and
/// the binary path must too.
double random_param(Rng& rng) {
  switch (rng.index(10)) {
    case 0: return -0.0;
    case 1: return 5e-324;             // smallest denormal
    case 2: return -2.2250738585072011e-308;  // just below DBL_MIN
    case 3: return 1.7976931348623157e308;    // DBL_MAX
    case 4: return -1e-300;
    default: return rng.uniform(-8.0, 8.0);
  }
}

/// Random circuit over the full instruction set with a random register
/// layout: qubits split across 1..3 named qregs, clbits across 1..2 cregs,
/// so register tables (not just flat indices) are exercised.
QuantumCircuit random_full_circuit(std::uint64_t seed) {
  static const std::vector<OpKind> kinds = unitary_kinds();
  Rng rng(derive_stream_seed(seed, 0));
  const int n = 3 + static_cast<int>(rng.index(5));  // 3..7 qubits
  const int nc = 2 + static_cast<int>(rng.index(3));
  QuantumCircuit qc;
  const int qsplits = 1 + static_cast<int>(rng.index(3));
  int assigned = 0;
  for (int r = 0; r < qsplits; ++r) {
    const int remaining = n - assigned;
    const int left = qsplits - 1 - r;
    const int size =
        left == 0 ? remaining
                  : 1 + static_cast<int>(rng.index(remaining - left));
    qc.add_qreg("q" + std::to_string(r), size);
    assigned += size;
  }
  if (rng.index(2) == 0) {
    qc.add_creg("c", nc);
  } else {
    qc.add_creg("m", 1 + (nc - 1) / 2);
    qc.add_creg("flag", nc - 1 - (nc - 1) / 2 + 1);
  }
  const int clbits = qc.num_clbits();
  const int ops = 10 + static_cast<int>(rng.index(30));
  for (int g = 0; g < ops; ++g) {
    switch (rng.index(12)) {
      case 0:
        qc.measure(static_cast<int>(rng.index(n)),
                   static_cast<int>(rng.index(clbits)));
        break;
      case 1:
        qc.reset(static_cast<int>(rng.index(n)));
        break;
      case 2: {
        const int width = 1 + static_cast<int>(rng.index(n));
        qc.barrier(distinct_qubits(rng, n, width));
        break;
      }
      default: {
        const OpKind kind = kinds[rng.index(kinds.size())];
        std::vector<double> params(op_num_params(kind));
        for (double& p : params) p = random_param(rng);
        qc.gate(kind, distinct_qubits(rng, n, op_num_qubits(kind)),
                std::move(params));
      }
    }
    if (rng.index(7) == 0 && qc.ops().back().kind != OpKind::Barrier)
      qc.c_if(static_cast<int>(rng.index(qc.cregs().size())),
              rng.index(std::uint64_t{1} << clbits));
  }
  return qc;
}

TEST(QbinRoundtrip, DecodeEncodeIdentityOn500RandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 520; ++seed) {
    const QuantumCircuit qc = random_full_circuit(seed);
    qbin::Bytes payload;
    ASSERT_NO_THROW(payload = qbin::encode(qc)) << "seed " << seed;
    QuantumCircuit back;
    ASSERT_NO_THROW(back = qbin::decode(payload)) << "seed " << seed;
    ASSERT_EQ(back, qc) << "round trip changed the circuit, seed " << seed;
  }
}

TEST(QbinRoundtrip, QasmToQbinToQasmIsAFixedPoint) {
  // qasm → circuit → qbin → circuit → qasm reproduces the QASM spelling
  // exactly: the binary format loses nothing the text format carries.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const QuantumCircuit qc = random_full_circuit(seed * 31 + 7);
    const std::string text = qasm::emit(qc);
    const QuantumCircuit parsed = qasm::parse(text);
    const QuantumCircuit through = qbin::decode(qbin::encode(parsed));
    EXPECT_EQ(through, parsed) << "seed " << seed;
    EXPECT_EQ(qasm::emit(through), text) << "seed " << seed;
  }
}

TEST(QbinRoundtrip, MultiRegisterCircuitRoundTrips) {
  QuantumCircuit qc;
  qc.add_qreg("alpha", 2);
  qc.add_qreg("beta", 3);
  qc.add_creg("m", 2);
  qc.add_creg("flag", 1);
  qc.h(0).cx(0, 2).ccx(1, 2, 3).rz(0.25, 4);
  qc.measure(0, 0);
  qc.measure(2, 1);
  qc.x(4).c_if(1, 1);
  qc.measure(4, 2);
  const QuantumCircuit back = qbin::decode(qbin::encode(qc));
  EXPECT_EQ(back, qc);
  EXPECT_EQ(back.qregs(), qc.qregs());  // names, sizes AND offsets
  EXPECT_EQ(back.cregs(), qc.cregs());
}

TEST(QbinRoundtrip, ExtremeParametersSurviveBitwise) {
  QuantumCircuit qc(2, 2);
  qc.rz(PI, 0);
  qc.rx(5e-324, 1);                      // smallest denormal
  qc.u(0.1 + 0.2, -PI / 3, 1.0 / 3.0, 0);
  qc.cp(-0.0, 0, 1);                     // sign of zero must survive
  qc.ry(std::numeric_limits<double>::max(), 0);
  qc.measure_all();
  const QuantumCircuit back = qbin::decode(qbin::encode(qc));
  ASSERT_EQ(back.ops().size(), qc.ops().size());
  EXPECT_EQ(back, qc);
  for (std::size_t i = 0; i < qc.ops().size(); ++i)
    for (std::size_t j = 0; j < qc.ops()[i].params.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ops()[i].params[j]),
                std::bit_cast<std::uint64_t>(qc.ops()[i].params[j]))
          << "op " << i << " param " << j;
}

TEST(QbinRoundtrip, NaNPayloadBitsSurvive) {
  // operator== can't see NaN equality, so check the bit pattern directly:
  // a quiet NaN with a distinctive payload must come back identical.
  const std::uint64_t nan_bits = 0x7FF8DEADBEEF0001ull;
  QuantumCircuit qc(1);
  qc.rz(std::bit_cast<double>(nan_bits), 0);
  const QuantumCircuit back = qbin::decode(qbin::encode(qc));
  ASSERT_EQ(back.ops().size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ops()[0].params[0]), nan_bits);
}

TEST(QbinRoundtrip, EdgeShapedCircuitsRoundTrip) {
  EXPECT_EQ(qbin::decode(qbin::encode(QuantumCircuit{})), QuantumCircuit{});

  QuantumCircuit no_ops(4, 2);
  EXPECT_EQ(qbin::decode(qbin::encode(no_ops)), no_ops);

  QuantumCircuit qonly(3);  // no classical registers at all
  qonly.h(0).cx(0, 1).ccx(0, 1, 2);
  EXPECT_EQ(qbin::decode(qbin::encode(qonly)), qonly);

  // A zero-width barrier is expressible in the IR via append.
  QuantumCircuit zb(2);
  Operation op;
  op.kind = OpKind::Barrier;
  zb.append(op);
  EXPECT_EQ(qbin::decode(qbin::encode(zb)), zb);

  // Conditions with large values on measure as well as gates.
  QuantumCircuit cond(2, 2);
  cond.x(0).c_if(0, 3);
  cond.measure(0, 0);
  cond.ops().back().cond_reg = 0;
  cond.ops().back().cond_val = std::uint64_t{1} << 60;
  EXPECT_EQ(qbin::decode(qbin::encode(cond)), cond);
}

TEST(QbinRoundtrip, ReaderMatchesMemoryDecodeAtAnyChunkSize) {
  std::ostringstream all;
  std::vector<QuantumCircuit> circuits;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    circuits.push_back(random_full_circuit(seed * 977));
    qbin::encode(circuits.back(), all);
  }
  const std::string blob = all.str();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
    std::istringstream in(blob);
    qbin::Reader reader(in, chunk);
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      ASSERT_FALSE(reader.at_end()) << "chunk " << chunk << " circuit " << i;
      QuantumCircuit got;
      ASSERT_NO_THROW(got = reader.read())
          << "chunk " << chunk << " circuit " << i;
      EXPECT_EQ(got, circuits[i]) << "chunk " << chunk << " circuit " << i;
    }
    // The reader consumed each payload exactly: the stream is at EOF, not
    // mid-payload, and the byte count matches the blob.
    EXPECT_TRUE(reader.at_end()) << "chunk " << chunk;
    EXPECT_EQ(reader.bytes_consumed(), blob.size()) << "chunk " << chunk;
  }
}

TEST(QbinRoundtrip, StreamDecodeConvenienceMatchesMemory) {
  const QuantumCircuit qc = random_full_circuit(424242);
  const qbin::Bytes payload = qbin::encode(qc);
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(payload.data()),
                  payload.size()));
  EXPECT_EQ(qbin::decode(in), qc);
}

TEST(QbinRoundtrip, StructuralDigestMatchesPayloadDigest) {
  // The digest computed from the circuit (no allocation) and the digest
  // read off the encoded payload (no decode) are the same value, so either
  // side can fingerprint a structure.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const QuantumCircuit qc = random_full_circuit(seed * 131 + 5);
    EXPECT_EQ(qbin::structural_digest(qc),
              qbin::structural_digest(qbin::encode(qc)))
        << "seed " << seed;
  }
}

TEST(QbinRoundtrip, StructuralDigestIsParameterBlind) {
  QuantumCircuit a(3, 3), b(3, 3);
  a.rx(0.1, 0).rz(0.2, 1).cu(0.3, 0.4, 0.5, 0, 2);
  b.rx(-1.9, 0).rz(5e-324, 1).cu(-0.0, 2.2, 3.3, 0, 2);
  EXPECT_EQ(qbin::structural_digest(a), qbin::structural_digest(b));

  // ...but sensitive to every structural dimension.
  QuantumCircuit c(3, 3);
  c.rx(0.1, 0).rz(0.2, 1).cu(0.3, 0.4, 0.5, 1, 2);  // different qubit
  EXPECT_NE(qbin::structural_digest(a), qbin::structural_digest(c));
  QuantumCircuit d(3, 3);
  d.ry(0.1, 0).rz(0.2, 1).cu(0.3, 0.4, 0.5, 0, 2);  // different kind
  EXPECT_NE(qbin::structural_digest(a), qbin::structural_digest(d));
  QuantumCircuit e(3, 3);
  e.rx(0.1, 0).rz(0.2, 1).cu(0.3, 0.4, 0.5, 0, 2);
  e.ops().back().cond_reg = 0;  // same ops, now conditioned
  e.ops().back().cond_val = 1;
  EXPECT_NE(qbin::structural_digest(a), qbin::structural_digest(e));
}

TEST(QbinRoundtrip, ParameterPoolDeduplicatesRepeatedAngles) {
  // 400 rotations by the same two angles: the pool stores 2 doubles, not
  // 400, so the payload stays far below 8 bytes per parameter.
  QuantumCircuit qc(4);
  for (int i = 0; i < 400; ++i)
    qc.rz(i % 2 == 0 ? 0.25 : -0.75, i % 4);
  const qbin::Bytes payload = qbin::encode(qc);
  // Upper bound: header + ops (~3 B each) + pool (2×8 B) + one index byte
  // per slot. Without dedup the params alone would be 3200 bytes.
  EXPECT_LT(payload.size(), 2000u);
  EXPECT_EQ(qbin::decode(payload), qc);
}

TEST(QbinRoundtrip, StrictFramingIsEnforced) {
  const QuantumCircuit qc = random_full_circuit(99);
  qbin::Bytes payload = qbin::encode(qc);

  qbin::Bytes trailing = payload;
  trailing.push_back(0x00);
  EXPECT_THROW(
      {
        try {
          qbin::decode(trailing);
        } catch (const qbin::DecodeError& e) {
          EXPECT_EQ(e.code(), qbin::DecodeErrc::TrailingBytes);
          throw;
        }
      },
      qbin::DecodeError);

  qbin::Bytes short_payload(payload.begin(), payload.end() - 1);
  EXPECT_THROW(
      {
        try {
          qbin::decode(short_payload);
        } catch (const qbin::DecodeError& e) {
          EXPECT_EQ(e.code(), qbin::DecodeErrc::Truncated);
          throw;
        }
      },
      qbin::DecodeError);
}

TEST(QbinRoundtrip, EncodeRejectsUnrepresentableCircuits) {
  // States reachable only by mutating ops() in place; rejecting them keeps
  // "every encoded payload round-trips" unconditional.
  QuantumCircuit clbit_on_gate(2, 2);
  clbit_on_gate.x(0);
  clbit_on_gate.ops().back().clbits.push_back(0);
  EXPECT_THROW(qbin::encode(clbit_on_gate), std::invalid_argument);

  QuantumCircuit barrier_params(2);
  barrier_params.barrier();
  barrier_params.ops().back().params.push_back(1.0);
  EXPECT_THROW(qbin::encode(barrier_params), std::invalid_argument);

  QuantumCircuit stale_cond_val(2, 2);
  stale_cond_val.x(0);
  stale_cond_val.ops().back().cond_val = 7;  // unconditioned but val != 0
  EXPECT_THROW(qbin::encode(stale_cond_val), std::invalid_argument);
}

}  // namespace
}  // namespace qtc
