#pragma once
// Recursive-descent parser for OpenQASM 2.0 producing a QuantumCircuit.
//
// Supported: OPENQASM header, include "qelib1.inc" (standard gates become
// native IR kinds), qreg/creg, builtin U/CX, all qelib1 gate names, custom
// `gate` definitions (macro-expanded at application sites; a body may use
// only gates defined before it), `opaque`
// declarations, parameter expressions (pi, + - * / ^, unary minus,
// sin/cos/tan/exp/ln/sqrt), register broadcasting, measure, reset, barrier,
// and `if (creg == n) <qop>;` conditionals.

#include <cstdint>
#include <string>

#include "core/circuit.hpp"
#include "qasm/lexer.hpp"

namespace qtc::qasm {

/// Deepest parameter expression parse() accepts. Each parenthesis or
/// function-call level, unary sign and binary operator nests one level; a
/// deeper expression raises ParseError at the token that crosses the cap.
inline constexpr int kMaxExprDepth = 256;

/// Most operations parse() builds. Gate definitions expand at application
/// sites and can nest, so a short program can ask for exponentially many
/// ops. Each definition records its expanded op count when it is defined,
/// and every statement checks its whole expansion (times its broadcast
/// width) against this cap before building any op; a program that would
/// exceed it raises ParseError at the statement's first token.
inline constexpr std::uint64_t kMaxExpandedOps = std::uint64_t{1} << 22;

/// Deepest chain of gate definitions parse() accepts: a definition whose
/// body applies a definition of nesting k has nesting k + 1, and one past
/// this cap raises ParseError at the body statement that crosses it. This
/// bounds the expander's recursion, which the op cap alone does not (a
/// chain of one-statement definitions expands to a single op).
inline constexpr int kMaxGateNesting = 256;

/// Parse OpenQASM 2.0 source into a circuit. Throws ParseError.
QuantumCircuit parse(const std::string& source);

/// Parse a .qasm file from disk. Throws std::runtime_error on I/O failure.
QuantumCircuit parse_file(const std::string& path);

/// Serialize a circuit back to OpenQASM 2.0 text. Gate names are emitted in
/// qelib1-compatible spelling (p -> u1, u -> u3); parse(emit(c)) == c.
std::string emit(const QuantumCircuit& circuit);

}  // namespace qtc::qasm
