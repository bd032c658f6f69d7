#pragma once
// QBIN: a versioned binary serialization of the qtc::core circuit IR — the
// compact wire format behind the toolchain's ingest fast path. Text QASM is
// the interchange format of the paper's workflow, but at service scale
// (megabyte ansätze re-parsed on every hybrid-loop request) text parse is
// the bottleneck: QBIN stores the same circuit as a flat opcode +
// varint-index instruction stream that decodes in O(1) per instruction,
// several times smaller and an order of magnitude faster than QASM parse,
// and losslessly — decode(encode(c)) == c bitwise, parameters included.
//
// v1 wire layout (all multi-byte integers little-endian; varint = LEB128):
//
//   offset 0   magic "QBIN"
//          4   u8  version (= 1)
//          5   u8  flags   (reserved, must be 0)
//          6   u32 total payload size in bytes (framing; enables streaming)
//         10   u32 byte offset of the parameter section
//         14   varint num_qubits, varint num_clbits
//              qreg table:  varint count, then per register
//                           {varint name_len, name bytes, varint size}
//              creg table:  same shape
//              varint op_count
//              instruction stream, op_count records:
//                u8 opcode   bits 5..0 = OpKind, bit 6 = conditioned,
//                            bit 7 reserved (must be 0)
//                operands    Barrier: varint count + count qubit varints
//                            Measure: qubit varint + clbit varint
//                            else:    op_num_qubits(kind) qubit varints
//                condition   (bit 6 only) varint cond_reg, varint cond_val
//   param section (at the u32 offset above):
//              varint pool_count, pool_count raw IEEE-754 doubles (8 bytes
//              LE each, deduplicated by bit pattern in first-use order),
//              then one varint pool index per parameter slot in op order
//              (slot counts are implied by the opcodes).
//
// The parameter pool trails the stream ON PURPOSE: every byte before the
// param section is a pure function of the circuit's *structure* (register
// shapes, gate kinds, operands, conditions — parameter values excluded), so
// bytes [0, param_offset) are a literal structural prefix. The transpile
// cache's structural fingerprint hashes exactly these bytes — via
// structural_digest(circuit) on the encode side, or straight off an encoded
// payload without decoding — instead of re-walking the IR, and the
// execution service batches pre-encoded submissions by the same digest.
//
// Decoding is strict: every read is bounds-checked against the declared
// framing, every count is range-checked before allocation, and every
// malformed input — truncated, overlong varint, bad opcode, out-of-range
// operand, broken register table, dangling pool index — raises a typed
// qbin::DecodeError carrying an error code and the byte offset where the
// damage was detected. No input crashes, over-allocates, or silently
// mis-parses; the fuzz suite (tests/test_qbin_fuzz.cpp) hammers exactly
// this contract.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/circuit.hpp"

namespace qtc::qbin {

inline constexpr std::uint8_t kMagic[4] = {'Q', 'B', 'I', 'N'};
inline constexpr std::uint8_t kVersion = 1;
/// Fixed-size header: magic, version, flags, total size, param offset.
inline constexpr std::size_t kHeaderSize = 14;

// Hard caps rejected before any allocation, so a corrupt count can never
// become a memory bomb (each capped entity also costs at least one payload
// byte, bounding work by input size).
inline constexpr std::uint64_t kMaxQubits = 1u << 24;
inline constexpr std::uint64_t kMaxClbits = 1u << 24;
inline constexpr std::uint64_t kMaxRegisters = 1u << 16;
inline constexpr std::uint64_t kMaxNameLength = 1u << 12;
inline constexpr std::uint64_t kMaxOps = 1u << 30;
inline constexpr std::uint64_t kMaxParams = 1u << 28;

/// Error taxonomy: one code per way an input can be malformed.
enum class DecodeErrc {
  BadMagic,          // first four bytes are not "QBIN"
  BadVersion,        // version byte this decoder does not understand
  BadFlags,          // reserved flag bits set
  Truncated,         // input ended mid-structure (or before total size)
  BadVarint,         // varint longer than 10 bytes / overflowing u64
  BadCount,          // a count field exceeds its hard cap
  BadRegisterTable,  // non-positive size, duplicate name, or count mismatch
  BadOpcode,         // unknown kind bits or reserved opcode bit set
  BadOperand,        // qubit/clbit index out of range or duplicated
  BadCondition,      // cond_reg not a classical register of the circuit
  BadParamIndex,     // parameter slot references past the pool
  BadSectionOffset,  // param offset disagrees with the instruction stream
  TrailingBytes,     // payload continues past the declared content
  IoError,           // the underlying stream failed mid-read
};

const char* to_string(DecodeErrc code);

/// Every malformed input raises this — never a crash, never a silent
/// mis-parse. `offset` is the payload byte position where the damage was
/// detected (for IoError: bytes successfully consumed).
class DecodeError : public std::runtime_error {
 public:
  DecodeError(DecodeErrc code, std::size_t offset, const std::string& detail);
  DecodeErrc code() const { return code_; }
  std::size_t offset() const { return offset_; }

 private:
  DecodeErrc code_;
  std::size_t offset_;
};

using Bytes = std::vector<std::uint8_t>;

/// Serialize a circuit to a self-framed QBIN payload. Throws
/// std::invalid_argument for circuits the format cannot represent exactly
/// (operands out of range, classical bits on a non-measure operation) so a
/// payload, once produced, always round-trips.
Bytes encode(const QuantumCircuit& circuit);
/// Encode and write the payload to `out` (binary stream).
void encode(const QuantumCircuit& circuit, std::ostream& out);

/// Decode a complete in-memory payload. Strict: `size` must equal the
/// declared total size (larger raises TrailingBytes, smaller Truncated).
QuantumCircuit decode(const std::uint8_t* data, std::size_t size);
QuantumCircuit decode(const Bytes& payload);
/// Decode one payload from a stream (see Reader).
QuantumCircuit decode(std::istream& in);

/// Streaming decoder: pulls the payload from any std::istream chunk by
/// chunk (never reading past the declared total size, so back-to-back
/// payloads on one stream decode sequentially) and applies the same strict
/// validation as the in-memory path. One Reader may read() repeatedly.
class Reader {
 public:
  explicit Reader(std::istream& in, std::size_t chunk_size = 4096);
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Decode the next payload. Throws DecodeError on malformed input
  /// (IoError when the stream fails mid-payload, Truncated when it ends
  /// early). Check at_end() first when reading a concatenated stream.
  QuantumCircuit read();
  /// True when the stream has no further byte (peeks without consuming).
  bool at_end() const;
  /// Payload bytes consumed across all read() calls.
  std::size_t bytes_consumed() const { return consumed_; }

 private:
  std::istream& in_;
  std::size_t chunk_size_;
  std::size_t consumed_ = 0;
};

/// 64-bit FNV-1a over the structural bytes of the circuit's QBIN encoding
/// (magic + version + everything up to the param section, minus the two
/// self-referential size fields) — the parameter-blind fingerprint the
/// transpile cache keys on. Computed by streaming the structural encoder
/// into a hash sink: no allocation, no full encode.
std::uint64_t structural_digest(const QuantumCircuit& circuit);
/// The same digest read straight off an encoded payload, without decoding
/// the instruction stream. Throws DecodeError when the header is damaged.
std::uint64_t structural_digest(const std::uint8_t* data, std::size_t size);
std::uint64_t structural_digest(const Bytes& payload);

}  // namespace qtc::qbin
