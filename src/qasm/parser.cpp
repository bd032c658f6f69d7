#include "qasm/parser.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "qbin/qbin.hpp"  // kMaxQubits / kMaxClbits (header-only)

namespace qtc::qasm {

namespace {

// ---------------------------------------------------------------------------
// Parameter expressions
// ---------------------------------------------------------------------------

struct Expr {
  enum class Kind { Num, Param, Unary, Binary, Fun };
  Kind kind{};
  double value = 0;        // Num
  std::string name;        // Param or Fun
  char op = 0;             // Binary: + - * / ^ ; Unary: -
  std::unique_ptr<Expr> lhs, rhs;

  double eval(const std::map<std::string, double>& env, int line) const {
    switch (kind) {
      case Kind::Num:
        return value;
      case Kind::Param: {
        auto it = env.find(name);
        if (it == env.end())
          throw ParseError("unknown parameter '" + name + "'", line, 0);
        return it->second;
      }
      case Kind::Unary:
        return -lhs->eval(env, line);
      case Kind::Binary: {
        const double a = lhs->eval(env, line), b = rhs->eval(env, line);
        switch (op) {
          case '+':
            return a + b;
          case '-':
            return a - b;
          case '*':
            return a * b;
          case '/':
            return a / b;
          case '^':
            return std::pow(a, b);
        }
        throw ParseError("bad operator", line, 0);
      }
      case Kind::Fun: {
        const double a = lhs->eval(env, line);
        if (name == "sin") return std::sin(a);
        if (name == "cos") return std::cos(a);
        if (name == "tan") return std::tan(a);
        if (name == "exp") return std::exp(a);
        if (name == "ln") return std::log(a);
        if (name == "sqrt") return std::sqrt(a);
        throw ParseError("unknown function '" + name + "'", line, 0);
      }
    }
    throw ParseError("bad expression", line, 0);
  }
};

using ExprPtr = std::unique_ptr<Expr>;

// ---------------------------------------------------------------------------
// Gate definitions (macros)
// ---------------------------------------------------------------------------

struct GateDef;

struct GateStmt {
  bool is_barrier = false;
  std::string name;                 // gate to apply
  // The definition `name` had when the enclosing gate was defined; null for
  // a native kind (or an unknown name, which fails when applied). Binding
  // at definition time makes recursive definitions impossible.
  const GateDef* def = nullptr;
  std::vector<ExprPtr> params;      // expressions over the def's parameters
  std::vector<int> qarg_indices;    // indices into the def's qubit args
  int line = 0;
};

struct GateDef {
  std::string name;
  std::vector<std::string> params;
  std::vector<std::string> qargs;
  std::vector<GateStmt> body;
  bool opaque = false;
  // Ops one application appends, saturating at kMaxExpandedOps + 1.
  std::uint64_t expanded_ops = 0;
  // Definition levels one application recurses through (1 = native body).
  int nesting = 1;
};

constexpr std::uint64_t kOpsCap = kMaxExpandedOps + 1;

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kOpsCap);  // a, b <= kOpsCap: no wraparound
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  return a != 0 && b > kOpsCap / a ? kOpsCap : std::min(a * b, kOpsCap);
}

// An operand in a top-level statement: a whole register or one bit of it.
struct Operand {
  int reg = -1;      // index into qregs/cregs
  int index = -1;    // -1 means the whole register (broadcast)
  int line = 0;
};

class Parser {
 public:
  explicit Parser(const std::string& source) : toks_(tokenize(source)) {}

  QuantumCircuit parse() {
    expect_ident("OPENQASM");
    // version number like 2.0
    const Token& ver = next();
    if (ver.kind != Token::Kind::Real && ver.kind != Token::Kind::Integer)
      throw ParseError("expected version number", ver.line, ver.col);
    expect_sym(";");
    while (!at_eof()) statement();
    return std::move(circ_);
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& peek(int ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  const Token& next() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool at_eof() const { return peek().kind == Token::Kind::Eof; }
  bool peek_sym(const std::string& s) const {
    return peek().kind == Token::Kind::Sym && peek().text == s;
  }
  bool peek_ident(const std::string& s) const {
    return peek().kind == Token::Kind::Ident && peek().text == s;
  }
  bool accept_sym(const std::string& s) {
    if (!peek_sym(s)) return false;
    ++pos_;
    return true;
  }
  void expect_sym(const std::string& s) {
    const Token& t = next();
    if (t.kind != Token::Kind::Sym || t.text != s)
      throw ParseError("expected '" + s + "', got '" + t.text + "'", t.line,
                       t.col);
  }
  void expect_ident(const std::string& s) {
    const Token& t = next();
    if (t.kind != Token::Kind::Ident || t.text != s)
      throw ParseError("expected '" + s + "', got '" + t.text + "'", t.line,
                       t.col);
  }
  std::string expect_name() {
    const Token& t = next();
    if (t.kind != Token::Kind::Ident)
      throw ParseError("expected identifier, got '" + t.text + "'", t.line,
                       t.col);
    return t.text;
  }
  long long expect_int() {
    const Token& t = next();
    if (t.kind != Token::Kind::Integer)
      throw ParseError("expected integer, got '" + t.text + "'", t.line,
                       t.col);
    return t.integer;
  }

  // --- expressions ----------------------------------------------------------
  // Every level of nesting (a parenthesis or function argument, a unary
  // sign, a binary operator) enters once, so the cap bounds both this
  // parser's recursion and the height of the tree that Expr::eval and the
  // destructor walk recursively. A parse that throws is abandoned, so only
  // the successful paths leave.
  void enter(const Token& at) {
    if (++depth_ > kMaxExprDepth)
      throw ParseError("expression nested deeper than " +
                           std::to_string(kMaxExprDepth) + " levels",
                       at.line, at.col);
  }
  void leave(int levels = 1) { depth_ -= levels; }

  ExprPtr binary(char op, ExprPtr lhs, ExprPtr rhs) {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::Binary;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  ExprPtr parse_expr() { return parse_additive(); }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    int levels = 0;
    while (peek_sym("+") || peek_sym("-")) {
      const Token& op = next();
      enter(op);
      ++levels;
      lhs = binary(op.text[0], std::move(lhs), parse_multiplicative());
    }
    leave(levels);
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_power();
    int levels = 0;
    while (peek_sym("*") || peek_sym("/")) {
      const Token& op = next();
      enter(op);
      ++levels;
      lhs = binary(op.text[0], std::move(lhs), parse_power());
    }
    leave(levels);
    return lhs;
  }

  ExprPtr parse_power() {
    ExprPtr lhs = parse_unary();
    if (!peek_sym("^")) return lhs;
    enter(next());
    ExprPtr node = binary('^', std::move(lhs), parse_power());  // right assoc
    leave();
    return node;
  }

  ExprPtr parse_unary() {
    if (peek_sym("-") || peek_sym("+")) {
      const Token& sign = next();
      enter(sign);
      ExprPtr operand = parse_unary();
      leave();
      if (sign.text == "+") return operand;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::Unary;
      node->lhs = std::move(operand);
      return node;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = next();
    auto node = std::make_unique<Expr>();
    if (t.kind == Token::Kind::Real || t.kind == Token::Kind::Integer) {
      node->kind = Expr::Kind::Num;
      node->value = t.real;
      return node;
    }
    if (t.kind == Token::Kind::Ident) {
      if (t.text == "pi") {
        node->kind = Expr::Kind::Num;
        node->value = PI;
        return node;
      }
      if (peek_sym("(")) {  // function call
        enter(next());
        node->kind = Expr::Kind::Fun;
        node->name = t.text;
        node->lhs = parse_expr();
        expect_sym(")");
        leave();
        return node;
      }
      node->kind = Expr::Kind::Param;
      node->name = t.text;
      return node;
    }
    if (t.kind == Token::Kind::Sym && t.text == "(") {
      enter(t);
      ExprPtr inner = parse_expr();
      expect_sym(")");
      leave();
      return inner;
    }
    throw ParseError("expected expression, got '" + t.text + "'", t.line,
                     t.col);
  }

  // --- statements ------------------------------------------------------------
  void statement() {
    const Token& t = peek();
    if (t.kind != Token::Kind::Ident)
      throw ParseError("expected statement, got '" + t.text + "'", t.line,
                       t.col);
    const std::string& kw = t.text;
    if (kw == "include") {
      next();
      const Token& file = next();
      if (file.kind != Token::Kind::Str)
        throw ParseError("expected include file string", file.line, file.col);
      if (file.text != "qelib1.inc")
        throw ParseError("unknown include '" + file.text + "'", file.line,
                         file.col);
      expect_sym(";");
      return;  // qelib1 gate names are native IR kinds
    }
    if (kw == "qreg" || kw == "creg") {
      next();
      const std::string name = expect_name();
      expect_sym("[");
      const Token& size_tok = peek();
      const long long size = expect_int();
      expect_sym("]");
      expect_sym(";");
      // Same caps as the QBIN decoder, on the running total so the sum of
      // many registers cannot overflow the circuit's int bit counts either.
      const bool quantum = kw == "qreg";
      const long long declared =
          quantum ? circ_.num_qubits() : circ_.num_clbits();
      const long long cap = static_cast<long long>(
          quantum ? qbin::kMaxQubits : qbin::kMaxClbits);
      if (size < 1)
        throw ParseError(kw + " '" + name + "': size must be positive",
                         size_tok.line, size_tok.col);
      if (size > cap - declared)
        throw ParseError(kw + " '" + name + "': size " + size_tok.text +
                             " takes the circuit past the " +
                             std::to_string(cap) +
                             (quantum ? "-qubit" : "-clbit") + " limit",
                         size_tok.line, size_tok.col);
      if (quantum)
        circ_.add_qreg(name, static_cast<int>(size));
      else
        circ_.add_creg(name, static_cast<int>(size));
      return;
    }
    if (kw == "gate" || kw == "opaque") {
      parse_gate_def(kw == "opaque");
      return;
    }
    if (kw == "if") {
      next();
      expect_sym("(");
      const std::string cname = expect_name();
      const int creg = circ_.find_creg(cname);
      if (creg < 0)
        throw ParseError("unknown creg '" + cname + "'", t.line, t.col);
      expect_sym("==");
      const long long val = expect_int();
      expect_sym(")");
      quantum_op(creg, static_cast<std::uint64_t>(val));
      return;
    }
    quantum_op(-1, 0);
  }

  void parse_gate_def(bool opaque) {
    next();  // 'gate' or 'opaque'
    GateDef def;
    def.opaque = opaque;
    def.name = expect_name();
    if (accept_sym("(")) {
      if (!peek_sym(")")) {
        def.params.push_back(expect_name());
        while (accept_sym(",")) def.params.push_back(expect_name());
      }
      expect_sym(")");
    }
    def.qargs.push_back(expect_name());
    while (accept_sym(",")) def.qargs.push_back(expect_name());
    auto qarg_index = [&](const std::string& name, int line) {
      for (std::size_t i = 0; i < def.qargs.size(); ++i)
        if (def.qargs[i] == name) return static_cast<int>(i);
      throw ParseError("unknown gate argument '" + name + "'", line, 0);
    };
    if (opaque) {
      expect_sym(";");
    } else {
      expect_sym("{");
      while (!peek_sym("}")) {
        const Token& st = peek();
        GateStmt stmt;
        stmt.line = st.line;
        if (peek_ident("barrier")) {
          next();
          stmt.is_barrier = true;
          stmt.qarg_indices.push_back(qarg_index(expect_name(), st.line));
          while (accept_sym(","))
            stmt.qarg_indices.push_back(qarg_index(expect_name(), st.line));
          expect_sym(";");
        } else {
          stmt.name = expect_name();
          if (stmt.name == "U") stmt.name = "u3";
          if (stmt.name == "CX") stmt.name = "cx";
          if (accept_sym("(")) {
            if (!peek_sym(")")) {
              stmt.params.push_back(parse_expr());
              while (accept_sym(",")) stmt.params.push_back(parse_expr());
            }
            expect_sym(")");
          }
          stmt.qarg_indices.push_back(qarg_index(expect_name(), st.line));
          while (accept_sym(","))
            stmt.qarg_indices.push_back(qarg_index(expect_name(), st.line));
          expect_sym(";");
        }
        if (!stmt.is_barrier) {
          const auto it = gate_defs_.find(stmt.name);
          if (it != gate_defs_.end()) stmt.def = it->second;
        }
        if (stmt.def) {
          def.nesting = std::max(def.nesting, stmt.def->nesting + 1);
          if (def.nesting > kMaxGateNesting)
            throw ParseError("gate definitions nested deeper than " +
                                 std::to_string(kMaxGateNesting) + " levels",
                             st.line, st.col);
        }
        def.expanded_ops = saturating_add(
            def.expanded_ops, stmt.def ? stmt.def->expanded_ops : 1);
        def.body.push_back(std::move(stmt));
      }
      expect_sym("}");
    }
    // A redefinition shadows the name; bodies bound to the old definition
    // keep it, so definitions live in a deque that never moves them.
    gate_store_.push_back(std::move(def));
    gate_defs_[gate_store_.back().name] = &gate_store_.back();
  }

  Operand parse_operand(bool classical) {
    const Token& t = peek();
    const std::string name = expect_name();
    Operand op;
    op.line = t.line;
    op.reg = classical ? circ_.find_creg(name) : circ_.find_qreg(name);
    if (op.reg < 0)
      throw ParseError("unknown register '" + name + "'", t.line, t.col);
    if (accept_sym("[")) {
      op.index = static_cast<int>(expect_int());
      expect_sym("]");
      const auto& reg =
          classical ? circ_.cregs()[op.reg] : circ_.qregs()[op.reg];
      if (op.index < 0 || op.index >= reg.size)
        throw ParseError("index out of range for register '" + name + "'",
                         t.line, t.col);
    }
    return op;
  }

  int flat_qubit(const Operand& op, int broadcast_i) const {
    const auto& reg = circ_.qregs()[op.reg];
    return reg.offset + (op.index >= 0 ? op.index : broadcast_i);
  }
  int flat_clbit(const Operand& op, int broadcast_i) const {
    const auto& reg = circ_.cregs()[op.reg];
    return reg.offset + (op.index >= 0 ? op.index : broadcast_i);
  }

  /// Broadcast width of an operand list (1 if all are single bits).
  int broadcast_width(const std::vector<Operand>& operands, bool classical,
                      int line) const {
    int width = 1;
    for (const auto& op : operands) {
      if (op.index >= 0) continue;
      const int size = classical ? circ_.cregs()[op.reg].size
                                 : circ_.qregs()[op.reg].size;
      if (width != 1 && size != width)
        throw ParseError("mismatched register sizes in broadcast", line, 0);
      width = size;
    }
    return width;
  }

  /// Refuse a statement that would grow the circuit past kMaxExpandedOps,
  /// before any of its ops is built.
  void reserve_ops(std::uint64_t count, const Token& t) const {
    if (saturating_add(circ_.size(), count) > kMaxExpandedOps)
      throw ParseError("program expands to more than " +
                           std::to_string(kMaxExpandedOps) + " operations",
                       t.line, t.col);
  }

  void quantum_op(int cond_reg, std::uint64_t cond_val) {
    const Token& t = peek();
    std::string name = expect_name();
    if (name == "measure") {
      const Operand q = parse_operand(false);
      expect_sym("->");
      const Operand c = parse_operand(true);
      expect_sym(";");
      const int wq = broadcast_width({q}, false, t.line);
      const int wc = broadcast_width({c}, true, t.line);
      if (wq != wc)
        throw ParseError("measure: quantum/classical width mismatch", t.line,
                         t.col);
      reserve_ops(wq, t);
      for (int i = 0; i < wq; ++i) {
        Operation op;
        op.kind = OpKind::Measure;
        op.qubits = {flat_qubit(q, i)};
        op.clbits = {flat_clbit(c, i)};
        op.cond_reg = cond_reg;
        op.cond_val = cond_val;
        circ_.append(std::move(op));
      }
      return;
    }
    if (name == "reset") {
      const Operand q = parse_operand(false);
      expect_sym(";");
      const int w = broadcast_width({q}, false, t.line);
      reserve_ops(w, t);
      for (int i = 0; i < w; ++i) {
        Operation op;
        op.kind = OpKind::Reset;
        op.qubits = {flat_qubit(q, i)};
        op.cond_reg = cond_reg;
        op.cond_val = cond_val;
        circ_.append(std::move(op));
      }
      return;
    }
    if (name == "barrier") {
      std::vector<Operand> args;
      args.push_back(parse_operand(false));
      while (accept_sym(",")) args.push_back(parse_operand(false));
      expect_sym(";");
      reserve_ops(1, t);
      std::vector<Qubit> qubits;
      for (const auto& arg : args) {
        if (arg.index >= 0) {
          qubits.push_back(flat_qubit(arg, 0));
        } else {
          const auto& reg = circ_.qregs()[arg.reg];
          for (int i = 0; i < reg.size; ++i) qubits.push_back(reg.offset + i);
        }
      }
      circ_.barrier(std::move(qubits));
      return;
    }
    // Gate application.
    if (name == "U") name = "u3";
    if (name == "CX") name = "cx";
    std::vector<double> params;
    if (accept_sym("(")) {
      std::map<std::string, double> empty;
      if (!peek_sym(")")) {
        params.push_back(parse_expr()->eval(empty, t.line));
        while (accept_sym(","))
          params.push_back(parse_expr()->eval(empty, t.line));
      }
      expect_sym(")");
    }
    std::vector<Operand> args;
    args.push_back(parse_operand(false));
    while (accept_sym(",")) args.push_back(parse_operand(false));
    expect_sym(";");

    const int width = broadcast_width(args, false, t.line);
    const auto def_it = gate_defs_.find(name);
    const GateDef* def = def_it == gate_defs_.end() ? nullptr : def_it->second;
    reserve_ops(saturating_mul(width, def ? def->expanded_ops : 1), t);
    for (int i = 0; i < width; ++i) {
      std::vector<Qubit> qubits;
      qubits.reserve(args.size());
      for (const auto& arg : args) qubits.push_back(flat_qubit(arg, i));
      apply_gate(name, def, params, qubits, cond_reg, cond_val, t.line);
    }
  }

  /// Apply a gate: a native kind (def == nullptr) directly, a custom
  /// definition by macro expansion (recursively).
  void apply_gate(const std::string& name, const GateDef* def,
                  const std::vector<double>& params,
                  const std::vector<Qubit>& qubits, int cond_reg,
                  std::uint64_t cond_val, int line) {
    if (def == nullptr) {
      const auto kind = op_from_name(name);
      if (!kind)
        throw ParseError("unknown gate '" + name + "'", line, 0);
      Operation op;
      op.kind = *kind;
      op.qubits = qubits;
      op.params = params;
      op.cond_reg = cond_reg;
      op.cond_val = cond_val;
      circ_.append(std::move(op));
      return;
    }
    if (def->opaque)
      throw ParseError("opaque gate '" + name + "' cannot be applied", line,
                       0);
    if (params.size() != def->params.size() ||
        qubits.size() != def->qargs.size())
      throw ParseError("gate '" + name + "': argument count mismatch", line,
                       0);
    std::map<std::string, double> env;
    for (std::size_t i = 0; i < params.size(); ++i)
      env[def->params[i]] = params[i];
    for (const GateStmt& stmt : def->body) {
      std::vector<Qubit> sub_qubits;
      sub_qubits.reserve(stmt.qarg_indices.size());
      for (int idx : stmt.qarg_indices) sub_qubits.push_back(qubits[idx]);
      if (stmt.is_barrier) {
        circ_.barrier(sub_qubits);
        continue;
      }
      std::vector<double> sub_params;
      sub_params.reserve(stmt.params.size());
      for (const auto& e : stmt.params)
        sub_params.push_back(e->eval(env, stmt.line));
      apply_gate(stmt.name, stmt.def, sub_params, sub_qubits, cond_reg,
                 cond_val, stmt.line);
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // expression nesting, see enter()
  QuantumCircuit circ_;
  std::deque<GateDef> gate_store_;
  std::map<std::string, const GateDef*> gate_defs_;
};

std::string bit_ref(const std::vector<Register>& regs, int flat) {
  for (const auto& reg : regs)
    if (flat >= reg.offset && flat < reg.offset + reg.size)
      return reg.name + "[" + std::to_string(flat - reg.offset) + "]";
  return "?[" + std::to_string(flat) + "]";
}

const char* emit_name(OpKind kind) {
  switch (kind) {
    case OpKind::P:
      return "u1";
    case OpKind::U:
      return "u3";
    case OpKind::CP:
      return "cu1";
    case OpKind::CU:
      return "cu3";
    default:
      return op_name(kind);
  }
}

}  // namespace

QuantumCircuit parse(const std::string& source) {
  return Parser(source).parse();
}

QuantumCircuit parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open qasm file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::string emit(const QuantumCircuit& circuit) {
  std::ostringstream os;
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  for (const auto& reg : circuit.qregs())
    os << "qreg " << reg.name << "[" << reg.size << "];\n";
  for (const auto& reg : circuit.cregs())
    os << "creg " << reg.name << "[" << reg.size << "];\n";
  for (const auto& op : circuit.ops()) {
    if (op.conditioned())
      os << "if (" << circuit.cregs()[op.cond_reg].name << "==" << op.cond_val
         << ") ";
    if (op.kind == OpKind::Measure) {
      os << "measure " << bit_ref(circuit.qregs(), op.qubits[0]) << " -> "
         << bit_ref(circuit.cregs(), op.clbits[0]) << ";\n";
      continue;
    }
    os << emit_name(op.kind);
    if (!op.params.empty()) {
      os << "(";
      for (std::size_t i = 0; i < op.params.size(); ++i) {
        if (i) os << ",";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", op.params[i]);
        os << buf;
      }
      os << ")";
    }
    os << " ";
    for (std::size_t i = 0; i < op.qubits.size(); ++i) {
      if (i) os << ",";
      os << bit_ref(circuit.qregs(), op.qubits[i]);
    }
    os << ";\n";
  }
  return os.str();
}

}  // namespace qtc::qasm
