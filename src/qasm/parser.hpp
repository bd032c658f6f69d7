#pragma once
// Recursive-descent parser for OpenQASM 2.0 producing a QuantumCircuit.
//
// Supported: OPENQASM header, include "qelib1.inc" (standard gates become
// native IR kinds), qreg/creg, builtin U/CX, all qelib1 gate names, custom
// `gate` definitions (macro-expanded at application sites), `opaque`
// declarations, parameter expressions (pi, + - * / ^, unary minus,
// sin/cos/tan/exp/ln/sqrt), register broadcasting, measure, reset, barrier,
// and `if (creg == n) <qop>;` conditionals.

#include <string>

#include "core/circuit.hpp"
#include "qasm/lexer.hpp"

namespace qtc::qasm {

/// Deepest parameter expression parse() accepts. Each parenthesis or
/// function-call level, unary sign and binary operator nests one level; a
/// deeper expression raises ParseError at the token that crosses the cap.
inline constexpr int kMaxExprDepth = 256;

/// Parse OpenQASM 2.0 source into a circuit. Throws ParseError.
QuantumCircuit parse(const std::string& source);

/// Parse a .qasm file from disk. Throws std::runtime_error on I/O failure.
QuantumCircuit parse_file(const std::string& path);

/// Serialize a circuit back to OpenQASM 2.0 text. Gate names are emitted in
/// qelib1-compatible spelling (p -> u1, u -> u3); parse(emit(c)) == c.
std::string emit(const QuantumCircuit& circuit);

}  // namespace qtc::qasm
