#include "qbin/qbin.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/gates.hpp"

namespace qtc::qbin {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

constexpr std::uint8_t kOpcodeKindMask = 0x3F;
constexpr std::uint8_t kOpcodeCondBit = 0x40;
constexpr std::uint8_t kOpcodeReservedBit = 0x80;
// ECR is appended after the structural kinds precisely so this bound could
// grow without renumbering any opcode already on the wire.
constexpr std::uint8_t kMaxKind = static_cast<std::uint8_t>(OpKind::ECR);

// ---------------------------------------------------------------------------
// Encoding. One structural emitter, two sinks: VecSink materializes payload
// bytes, HashSink folds the same bytes into FNV-1a without allocating — so
// structural_digest(circuit) and the structural prefix of encode(circuit)
// are the same byte stream by construction, not by parallel maintenance.

struct VecSink {
  Bytes& out;
  void put(std::uint8_t b) { out.push_back(b); }
  void write(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + n);
  }
};

struct HashSink {
  std::uint64_t h = kFnvOffset;
  void put(std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
  void write(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) put(bytes[i]);
  }
};

template <class Sink>
void emit_varint(Sink& s, std::uint64_t v) {
  while (v >= 0x80) {
    s.put(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  s.put(static_cast<std::uint8_t>(v));
}

template <class Sink>
void emit_register_table(Sink& s, const std::vector<Register>& regs) {
  emit_varint(s, regs.size());
  for (const Register& r : regs) {
    emit_varint(s, r.name.size());
    s.write(r.name.data(), r.name.size());
    emit_varint(s, static_cast<std::uint64_t>(r.size));
  }
}

/// Everything between the fixed header and the param section: the byte
/// stream that defines the circuit's structure. Register offsets are not
/// written — they are the running sum of the preceding sizes, an invariant
/// add_qreg/add_creg maintain.
template <class Sink>
void emit_tables_and_ops(Sink& s, const QuantumCircuit& c) {
  emit_varint(s, static_cast<std::uint64_t>(c.num_qubits()));
  emit_varint(s, static_cast<std::uint64_t>(c.num_clbits()));
  emit_register_table(s, c.qregs());
  emit_register_table(s, c.cregs());
  emit_varint(s, c.ops().size());
  for (const Operation& op : c.ops()) {
    std::uint8_t opcode = static_cast<std::uint8_t>(op.kind);
    if (op.conditioned()) opcode |= kOpcodeCondBit;
    s.put(opcode);
    if (op.kind == OpKind::Barrier) emit_varint(s, op.qubits.size());
    for (Qubit q : op.qubits) emit_varint(s, static_cast<std::uint64_t>(q));
    if (op.kind == OpKind::Measure)
      for (Clbit cl : op.clbits) emit_varint(s, static_cast<std::uint64_t>(cl));
    if (op.conditioned()) {
      emit_varint(s, static_cast<std::uint64_t>(op.cond_reg));
      emit_varint(s, op.cond_val);
    }
  }
}

/// The structural bytes the digest covers: magic, version, flags, then the
/// tables + instruction stream. The two u32 size fields are skipped — they
/// are derived quantities (and would make the digest self-referential).
template <class Sink>
void emit_structural(Sink& s, const QuantumCircuit& c) {
  s.write(kMagic, sizeof(kMagic));
  s.put(kVersion);
  s.put(0);  // flags
  emit_tables_and_ops(s, c);
}

[[noreturn]] void unencodable(std::size_t op_index, const std::string& what) {
  throw std::invalid_argument("qbin: cannot encode op " +
                              std::to_string(op_index) + ": " + what);
}

/// The format represents exactly the circuits check_op admits, minus two
/// states reachable only by mutating ops() in place: clbits on a non-measure
/// operation, and non-canonical conditions (cond_reg < -1, or a stale
/// cond_val on an unconditioned op). Rejecting those up front keeps the
/// round-trip guarantee unconditional: every payload encode() produces
/// decodes back to an operator==-equal circuit.
void check_encodable(const QuantumCircuit& c) {
  if (static_cast<std::uint64_t>(c.num_qubits()) > kMaxQubits ||
      static_cast<std::uint64_t>(c.num_clbits()) > kMaxClbits)
    throw std::invalid_argument("qbin: circuit exceeds format qubit limit");
  if (c.qregs().size() > kMaxRegisters || c.cregs().size() > kMaxRegisters)
    throw std::invalid_argument("qbin: too many registers");
  for (const auto& regs : {c.qregs(), c.cregs()})
    for (const Register& r : regs)
      if (r.name.size() > kMaxNameLength)
        throw std::invalid_argument("qbin: register name too long");
  if (c.ops().size() > kMaxOps)
    throw std::invalid_argument("qbin: too many operations");

  std::uint64_t param_slots = 0;
  for (std::size_t i = 0; i < c.ops().size(); ++i) {
    const Operation& op = c.ops()[i];
    const auto kind_bits = static_cast<unsigned>(op.kind);
    if (kind_bits > kMaxKind) unencodable(i, "unknown op kind");
    if (op.kind != OpKind::Barrier) {
      if (op.qubits.size() !=
          static_cast<std::size_t>(op_num_qubits(op.kind)))
        unencodable(i, "wrong qubit arity");
      if (op.params.size() !=
          static_cast<std::size_t>(op_num_params(op.kind)))
        unencodable(i, "wrong parameter count");
    } else if (!op.params.empty()) {
      unencodable(i, "barrier with parameters");
    }
    for (Qubit q : op.qubits)
      if (q < 0 || q >= c.num_qubits()) unencodable(i, "qubit out of range");
    for (std::size_t a = 0; a < op.qubits.size(); ++a)
      for (std::size_t b = a + 1; b < op.qubits.size(); ++b)
        if (op.qubits[a] == op.qubits[b])
          unencodable(i, "duplicate qubit operand");
    if (op.kind == OpKind::Measure) {
      if (op.clbits.size() != 1) unencodable(i, "measure needs one clbit");
      if (op.clbits[0] < 0 || op.clbits[0] >= c.num_clbits())
        unencodable(i, "clbit out of range");
    } else if (!op.clbits.empty()) {
      unencodable(i, "clbits on a non-measure operation");
    }
    if (op.cond_reg < -1) unencodable(i, "non-canonical condition register");
    if (op.cond_reg >= static_cast<int>(c.cregs().size()))
      unencodable(i, "condition register out of range");
    if (!op.conditioned() && op.cond_val != 0)
      unencodable(i, "condition value on an unconditioned operation");
    param_slots += op.params.size();
  }
  if (param_slots > kMaxParams)
    throw std::invalid_argument("qbin: too many parameters");
}

void put_u32le(std::uint8_t* dst, std::uint32_t v) {
  dst[0] = static_cast<std::uint8_t>(v);
  dst[1] = static_cast<std::uint8_t>(v >> 8);
  dst[2] = static_cast<std::uint8_t>(v >> 16);
  dst[3] = static_cast<std::uint8_t>(v >> 24);
}

// ---------------------------------------------------------------------------
// Decoding. A Cursor pulls bytes through an Input — a zero-copy view over a
// memory buffer, or chunked reads from an istream — and enforces the
// declared framing: it never requests more than the payload's total size
// from the input (so concatenated payloads on one stream stay separable)
// and converts every premature end into DecodeError(Truncated).

class Input {
 public:
  virtual ~Input() = default;
  /// Deliver a view of up to `max` further bytes (empty at end of input).
  /// `pos` is the decoder's byte position, for error attribution.
  virtual std::pair<const std::uint8_t*, std::size_t> pull(std::size_t max,
                                                           std::size_t pos) = 0;
};

class MemoryInput final : public Input {
 public:
  MemoryInput(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  std::pair<const std::uint8_t*, std::size_t> pull(std::size_t max,
                                                   std::size_t) override {
    const std::size_t n = std::min(max, size_ - off_);
    const std::uint8_t* p = data_ + off_;
    off_ += n;
    return {p, n};
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

class StreamInput final : public Input {
 public:
  StreamInput(std::istream& in, std::size_t chunk_size)
      : in_(in), buf_(std::max<std::size_t>(chunk_size, 16)) {}
  std::pair<const std::uint8_t*, std::size_t> pull(std::size_t max,
                                                   std::size_t pos) override {
    const std::size_t want = std::min(max, buf_.size());
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (in_.bad())
      throw DecodeError(DecodeErrc::IoError, pos + got,
                        "stream failed mid-payload");
    // A short read reaching end-of-stream sets failbit; clear it so the
    // stream stays inspectable (truncation is diagnosed by the cursor).
    if (in_.eof() && in_.fail()) in_.clear(std::ios_base::eofbit);
    return {buf_.data(), got};
  }

 private:
  std::istream& in_;
  Bytes buf_;
};

class Cursor {
 public:
  explicit Cursor(Input& in) : in_(in) {}

  std::size_t pos() const { return pos_; }
  std::size_t cap() const { return cap_; }
  /// Raise the total number of bytes this cursor may consume (set once the
  /// header's declared size is known; until then only the header is pulled).
  void set_cap(std::size_t cap) { cap_ = cap; }

  [[noreturn]] void fail(DecodeErrc code, const std::string& detail) const {
    throw DecodeError(code, pos_, detail);
  }

  std::uint8_t u8() {
    if (cur_ == end_) refill();
    ++pos_;
    return *cur_++;
  }

  void read_exact(std::uint8_t* dst, std::size_t n) {
    while (n > 0) {
      if (cur_ == end_) refill();
      const std::size_t k = std::min(n, static_cast<std::size_t>(end_ - cur_));
      std::memcpy(dst, cur_, k);
      cur_ += k;
      dst += k;
      pos_ += k;
      n -= k;
    }
  }

  std::uint32_t u32le() {
    std::uint8_t b[4];
    read_exact(b, 4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  std::uint64_t f64bits_le() {
    std::uint8_t b[8];
    read_exact(b, 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

  /// LEB128, at most 10 bytes; the 10th byte may only contribute the final
  /// bit of a 64-bit value, anything more is an overflow.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t b = u8();
      if (i == 9 && b > 0x01)
        fail(DecodeErrc::BadVarint, "varint overflows 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
      if (!(b & 0x80)) return v;
    }
    fail(DecodeErrc::BadVarint, "varint longer than 10 bytes");
  }

  /// varint checked against a hard cap (counts, lengths).
  std::uint64_t counted(std::uint64_t max, const char* what) {
    const std::uint64_t v = varint();
    if (v > max)
      fail(DecodeErrc::BadCount,
           std::string(what) + " count " + std::to_string(v) +
               " exceeds limit " + std::to_string(max));
    return v;
  }

 private:
  void refill() {
    const std::size_t want = cap_ - fetched_;
    if (want == 0)
      fail(DecodeErrc::Truncated, "structure extends past declared size");
    auto [p, n] = in_.pull(want, pos_);
    if (n == 0) fail(DecodeErrc::Truncated, "unexpected end of input");
    cur_ = p;
    end_ = p + n;
    fetched_ += n;
  }

  Input& in_;
  const std::uint8_t* cur_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::size_t pos_ = 0;      // bytes consumed by the decoder
  std::size_t fetched_ = 0;  // bytes pulled from the input (>= pos_)
  std::size_t cap_ = kHeaderSize;
};

struct Header {
  std::uint32_t total_size = 0;
  std::uint32_t param_offset = 0;
};

Header read_header(Cursor& cur) {
  std::uint8_t magic[4];
  cur.read_exact(magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0)
    throw DecodeError(DecodeErrc::BadMagic, 0, "not a QBIN payload");
  const std::uint8_t version = cur.u8();
  if (version != kVersion)
    throw DecodeError(DecodeErrc::BadVersion, 4,
                      "unsupported version " + std::to_string(version));
  const std::uint8_t flags = cur.u8();
  if (flags != 0)
    throw DecodeError(DecodeErrc::BadFlags, 5,
                      "reserved flag bits set: " + std::to_string(flags));
  Header h;
  h.total_size = cur.u32le();
  h.param_offset = cur.u32le();
  if (h.total_size < kHeaderSize)
    cur.fail(DecodeErrc::Truncated, "declared size smaller than the header");
  if (h.param_offset < kHeaderSize || h.param_offset > h.total_size)
    cur.fail(DecodeErrc::BadSectionOffset,
             "param section offset outside the payload");
  return h;
}

struct RegisterSpec {
  std::string name;
  int size = 0;
};

std::vector<RegisterSpec> read_register_table(Cursor& cur,
                                              std::uint64_t declared_bits,
                                              const char* what) {
  const std::uint64_t count = cur.counted(kMaxRegisters, what);
  std::vector<RegisterSpec> regs;
  regs.reserve(count);
  std::unordered_set<std::string> names;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = cur.counted(kMaxNameLength, "name length");
    std::string name(name_len, '\0');
    cur.read_exact(reinterpret_cast<std::uint8_t*>(name.data()), name_len);
    if (!names.insert(name).second)
      cur.fail(DecodeErrc::BadRegisterTable,
               std::string("duplicate ") + what + " name");
    const std::uint64_t size = cur.varint();
    if (size == 0)
      cur.fail(DecodeErrc::BadRegisterTable, "register size must be positive");
    // Compare against the remaining headroom instead of accumulating first:
    // `total + size` could wrap past 2^64 back under declared_bits and slip
    // through both this prefix check and the final-sum check below.
    if (size > declared_bits - total)
      cur.fail(DecodeErrc::BadRegisterTable,
               std::string(what) + " sizes exceed the declared bit count");
    total += size;
    regs.push_back({std::move(name), static_cast<int>(size)});
  }
  if (total != declared_bits)
    cur.fail(DecodeErrc::BadRegisterTable,
             std::string(what) + " sizes do not sum to the declared count");
  return regs;
}

void check_no_duplicate_qubits(Cursor& cur, const std::vector<Qubit>& qubits) {
  if (qubits.size() <= 1) return;
  if (qubits.size() <= 16) {
    for (std::size_t a = 0; a < qubits.size(); ++a)
      for (std::size_t b = a + 1; b < qubits.size(); ++b)
        if (qubits[a] == qubits[b])
          cur.fail(DecodeErrc::BadOperand, "duplicate qubit operand");
    return;
  }
  std::vector<Qubit> sorted = qubits;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    cur.fail(DecodeErrc::BadOperand, "duplicate qubit operand");
}

QuantumCircuit decode_payload(Cursor& cur) {
  const Header h = read_header(cur);
  cur.set_cap(h.total_size);

  const std::uint64_t num_qubits = cur.counted(kMaxQubits, "qubit");
  const std::uint64_t num_clbits = cur.counted(kMaxClbits, "clbit");
  const auto qregs = read_register_table(cur, num_qubits, "qreg");
  const auto cregs = read_register_table(cur, num_clbits, "creg");

  QuantumCircuit circuit;
  try {
    for (const RegisterSpec& r : qregs) circuit.add_qreg(r.name, r.size);
    for (const RegisterSpec& r : cregs) circuit.add_creg(r.name, r.size);
  } catch (const std::exception& e) {
    // The table reader pre-validates sizes and duplicate names; convert
    // anything the IR still rejects so malformed input never escapes as a
    // non-DecodeError exception.
    cur.fail(DecodeErrc::BadRegisterTable, e.what());
  }
  const int nq = circuit.num_qubits();
  const int nc = circuit.num_clbits();
  const int creg_count = static_cast<int>(circuit.cregs().size());

  const std::uint64_t op_count = cur.counted(kMaxOps, "operation");
  std::uint64_t param_slots = 0;
  for (std::uint64_t i = 0; i < op_count; ++i) {
    const std::uint8_t opcode = cur.u8();
    if (opcode & kOpcodeReservedBit)
      cur.fail(DecodeErrc::BadOpcode, "reserved opcode bit set");
    const std::uint8_t kind_bits = opcode & kOpcodeKindMask;
    if (kind_bits > kMaxKind)
      cur.fail(DecodeErrc::BadOpcode,
               "unknown op kind " + std::to_string(kind_bits));
    Operation op;
    op.kind = static_cast<OpKind>(kind_bits);

    const std::uint64_t nops = op.kind == OpKind::Barrier
                                   ? cur.counted(kMaxQubits, "barrier qubit")
                                   : static_cast<std::uint64_t>(
                                         op_num_qubits(op.kind));
    op.qubits.reserve(nops);
    for (std::uint64_t q = 0; q < nops; ++q) {
      const std::uint64_t idx = cur.varint();
      if (idx >= static_cast<std::uint64_t>(nq))
        cur.fail(DecodeErrc::BadOperand, "qubit index out of range");
      op.qubits.push_back(static_cast<Qubit>(idx));
    }
    check_no_duplicate_qubits(cur, op.qubits);
    if (op.kind == OpKind::Measure) {
      const std::uint64_t idx = cur.varint();
      if (idx >= static_cast<std::uint64_t>(nc))
        cur.fail(DecodeErrc::BadOperand, "clbit index out of range");
      op.clbits.push_back(static_cast<Clbit>(idx));
    }
    if (opcode & kOpcodeCondBit) {
      const std::uint64_t reg = cur.varint();
      if (reg >= static_cast<std::uint64_t>(creg_count))
        cur.fail(DecodeErrc::BadCondition,
                 "condition register out of range");
      op.cond_reg = static_cast<int>(reg);
      op.cond_val = cur.varint();
    }
    // Values arrive later from the pool; reserve the slots now so the op
    // passes arity checks.
    op.params.assign(static_cast<std::size_t>(op_num_params(op.kind)), 0.0);
    param_slots += op.params.size();
    if (param_slots > kMaxParams)
      cur.fail(DecodeErrc::BadCount, "parameter slots exceed limit");
    try {
      circuit.append(std::move(op));
    } catch (const std::exception& e) {
      // Everything above pre-validates what check_op checks; this is the
      // belt-and-braces conversion should the IR ever tighten its rules.
      cur.fail(DecodeErrc::BadOperand, e.what());
    }
  }

  if (cur.pos() != h.param_offset)
    cur.fail(DecodeErrc::BadSectionOffset,
             "instruction stream ends at " + std::to_string(cur.pos()) +
                 " but the header placed the param section at " +
                 std::to_string(h.param_offset));

  const std::uint64_t pool_count = cur.counted(kMaxParams, "parameter pool");
  std::vector<double> pool;
  // Each pool entry costs 8 payload bytes, so bounding the reserve by the
  // remaining declared bytes keeps a corrupt count from over-allocating.
  pool.reserve(std::min<std::uint64_t>(pool_count,
                                       (cur.cap() - cur.pos()) / 8 + 1));
  for (std::uint64_t i = 0; i < pool_count; ++i)
    pool.push_back(std::bit_cast<double>(cur.f64bits_le()));
  for (Operation& op : circuit.ops())
    for (double& slot : op.params) {
      const std::uint64_t idx = cur.varint();
      if (idx >= pool_count)
        cur.fail(DecodeErrc::BadParamIndex,
                 "parameter index " + std::to_string(idx) +
                     " past pool of " + std::to_string(pool_count));
      slot = pool[static_cast<std::size_t>(idx)];
    }

  if (cur.pos() != h.total_size)
    cur.fail(DecodeErrc::TrailingBytes,
             "payload continues past the declared content");
  return circuit;
}

}  // namespace

// ---------------------------------------------------------------------------

const char* to_string(DecodeErrc code) {
  switch (code) {
    case DecodeErrc::BadMagic: return "BadMagic";
    case DecodeErrc::BadVersion: return "BadVersion";
    case DecodeErrc::BadFlags: return "BadFlags";
    case DecodeErrc::Truncated: return "Truncated";
    case DecodeErrc::BadVarint: return "BadVarint";
    case DecodeErrc::BadCount: return "BadCount";
    case DecodeErrc::BadRegisterTable: return "BadRegisterTable";
    case DecodeErrc::BadOpcode: return "BadOpcode";
    case DecodeErrc::BadOperand: return "BadOperand";
    case DecodeErrc::BadCondition: return "BadCondition";
    case DecodeErrc::BadParamIndex: return "BadParamIndex";
    case DecodeErrc::BadSectionOffset: return "BadSectionOffset";
    case DecodeErrc::TrailingBytes: return "TrailingBytes";
    case DecodeErrc::IoError: return "IoError";
  }
  return "Unknown";
}

DecodeError::DecodeError(DecodeErrc code, std::size_t offset,
                         const std::string& detail)
    : std::runtime_error(std::string("qbin decode [") + to_string(code) +
                         " at byte " + std::to_string(offset) + "]: " +
                         detail),
      code_(code),
      offset_(offset) {}

Bytes encode(const QuantumCircuit& circuit) {
  check_encodable(circuit);
  Bytes out(kHeaderSize, 0);  // u32 size fields stay 0 until patched below
  out.reserve(kHeaderSize + 8 * circuit.size() + 64);
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  out[4] = kVersion;
  out[5] = 0;  // flags
  VecSink sink{out};
  emit_tables_and_ops(sink, circuit);
  const std::size_t param_offset = out.size();

  // Parameter pool: distinct bit patterns in first-use order, then one pool
  // index per slot. -0.0 and 0.0 are distinct entries (bitwise round-trip);
  // every NaN payload survives exactly.
  std::vector<std::uint64_t> pool;
  std::unordered_map<std::uint64_t, std::uint64_t> pool_index;
  std::vector<std::uint64_t> slots;
  for (const Operation& op : circuit.ops())
    for (double p : op.params) {
      const auto bits = std::bit_cast<std::uint64_t>(p);
      auto [it, inserted] = pool_index.try_emplace(bits, pool.size());
      if (inserted) pool.push_back(bits);
      slots.push_back(it->second);
    }
  emit_varint(sink, pool.size());
  for (std::uint64_t bits : pool)
    for (int i = 0; i < 8; ++i)
      sink.put(static_cast<std::uint8_t>(bits >> (8 * i)));
  for (std::uint64_t s : slots) emit_varint(sink, s);

  if (out.size() > 0xFFFFFFFFull)
    throw std::invalid_argument("qbin: encoded payload exceeds 4 GiB");
  put_u32le(out.data() + 6, static_cast<std::uint32_t>(out.size()));
  put_u32le(out.data() + 10, static_cast<std::uint32_t>(param_offset));
  return out;
}

void encode(const QuantumCircuit& circuit, std::ostream& out) {
  const Bytes payload = encode(circuit);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
}

QuantumCircuit decode(const std::uint8_t* data, std::size_t size) {
  // Peek the declared size first so too-large inputs fail as TrailingBytes
  // before any parsing: strictness means size must match exactly.
  if (size >= kHeaderSize) {
    const std::uint32_t total = static_cast<std::uint32_t>(data[6]) |
                                (static_cast<std::uint32_t>(data[7]) << 8) |
                                (static_cast<std::uint32_t>(data[8]) << 16) |
                                (static_cast<std::uint32_t>(data[9]) << 24);
    if (total >= kHeaderSize && size > total)
      throw DecodeError(DecodeErrc::TrailingBytes, total,
                        std::to_string(size - total) +
                            " bytes past the declared payload size");
  }
  MemoryInput input(data, size);
  Cursor cur(input);
  return decode_payload(cur);
}

QuantumCircuit decode(const Bytes& payload) {
  return decode(payload.data(), payload.size());
}

QuantumCircuit decode(std::istream& in) { return Reader(in).read(); }

Reader::Reader(std::istream& in, std::size_t chunk_size)
    : in_(in), chunk_size_(std::max<std::size_t>(chunk_size, 16)) {}

Reader::~Reader() = default;

QuantumCircuit Reader::read() {
  StreamInput input(in_, chunk_size_);
  Cursor cur(input);
  QuantumCircuit circuit = decode_payload(cur);
  consumed_ += cur.pos();
  return circuit;
}

bool Reader::at_end() const {
  return in_.peek() == std::istream::traits_type::eof();
}

std::uint64_t structural_digest(const QuantumCircuit& circuit) {
  HashSink h;
  emit_structural(h, circuit);
  return h.h;
}

std::uint64_t structural_digest(const std::uint8_t* data, std::size_t size) {
  MemoryInput input(data, size);
  Cursor cur(input);
  const Header h = read_header(cur);
  if (h.total_size != size)
    throw DecodeError(h.total_size < size ? DecodeErrc::TrailingBytes
                                          : DecodeErrc::Truncated,
                      std::min<std::size_t>(size, h.total_size),
                      "payload size does not match the declared total");
  HashSink sink;
  sink.write(data, 6);  // magic + version + flags; skip the size fields
  sink.write(data + kHeaderSize, h.param_offset - kHeaderSize);
  return sink.h;
}

std::uint64_t structural_digest(const Bytes& payload) {
  return structural_digest(payload.data(), payload.size());
}

}  // namespace qtc::qbin
