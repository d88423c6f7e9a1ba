#include "io/bench_io.h"

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace rd {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error("bench line " + std::to_string(line_no) + ": " +
                           message);
}

/// ASCII case-insensitive comparison of `text` with a lower-case word.
bool equals_lower(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) !=
        lower[i])
      return false;
  }
  return true;
}

GateType parse_gate_type(std::string_view token, std::size_t line_no) {
  if (equals_lower(token, "and")) return GateType::kAnd;
  if (equals_lower(token, "or")) return GateType::kOr;
  if (equals_lower(token, "nand")) return GateType::kNand;
  if (equals_lower(token, "nor")) return GateType::kNor;
  if (equals_lower(token, "not") || equals_lower(token, "inv"))
    return GateType::kNot;
  if (equals_lower(token, "buf") || equals_lower(token, "buff"))
    return GateType::kBuf;
  fail(line_no, "unknown gate type '" + std::string(token) + "'");
}

/// What follows a statement's closing ')' may only be blank or a
/// comment; anything else would be silently dropped.
void check_tail(std::string_view tail, std::size_t line_no) {
  tail = trim(tail);
  if (!tail.empty() && tail.front() != '#')
    fail(line_no, "unexpected text '" + std::string(tail) + "' after ')'");
}

constexpr std::uint32_t kNoStatement = ~std::uint32_t{0};

/// A declared signal: an input or a gate statement's output, with the
/// gate it became once built.
struct Signal {
  std::string_view name;
  GateId gate = kNullGate;                 // kNullGate until built
  std::uint32_t statement = kNoStatement;  // defining gate statement
};

/// The signal names, sized once for every declaration: linear probing
/// over a power-of-two array of indices into `signals_`, which never
/// reallocates, so entry pointers stay valid.
class NameTable {
 public:
  explicit NameTable(std::size_t max_signals) {
    std::size_t size = 8;
    while (size < 2 * max_signals) size *= 2;
    slots_.assign(size, kEmptySlot);
    signals_.reserve(max_signals);
  }

  /// The entry named signal.name, inserting `signal` if there is none;
  /// the flag is true when it was inserted.
  std::pair<Signal*, bool> insert(const Signal& signal) {
    std::uint32_t& slot = probe(signal.name);
    if (slot != kEmptySlot) return {&signals_[slot], false};
    slot = static_cast<std::uint32_t>(signals_.size());
    signals_.push_back(signal);
    return {&signals_.back(), true};
  }

  /// The entry named `name`, or nullptr.
  Signal* find(std::string_view name) {
    const std::uint32_t slot = probe(name);
    return slot == kEmptySlot ? nullptr : &signals_[slot];
  }

 private:
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

  std::uint32_t& probe(std::string_view name) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(name) & mask;;
         i = (i + 1) & mask) {
      std::uint32_t& slot = slots_[i];
      if (slot == kEmptySlot || signals_[slot].name == name) return slot;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Signal> signals_;
};

/// One pass over the text: every name stays a view into it until the
/// circuit is built, and all fanin names share one flat vector.
Circuit parse_bench(std::string_view text, std::string circuit_name) {
  // Statement and fanin counts are below the byte count, so this keeps
  // every 32-bit index below from wrapping.
  if (text.size() >= kNullGate)
    throw std::runtime_error("bench text of " + std::to_string(text.size()) +
                             " bytes is too large");
  struct IoStatement {
    std::string_view name;
    std::size_t line_no;
  };
  struct GateStatement {
    std::string_view name;
    GateType type;
    std::uint32_t first_fanin;  // into fanin_names
    std::uint32_t num_fanins;
    std::size_t line_no;
    Signal* signal = nullptr;  // this statement's name-table entry
  };
  std::vector<IoStatement> input_names;
  std::vector<IoStatement> output_names;
  std::vector<GateStatement> statements;
  std::vector<std::string_view> fanin_names;

  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = trim(text.substr(pos, end - pos));
    pos = end + 1;
    ++line_no;
    if (line.empty() || line.front() == '#') continue;

    const auto open = line.find('(');
    const auto equals = line.find('=');
    if (equals == std::string_view::npos) {
      // INPUT(name) or OUTPUT(name)
      const auto close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open)
        fail(line_no, "expected INPUT(name) or OUTPUT(name)");
      const std::string_view keyword = trim(line.substr(0, open));
      const std::string_view name =
          trim(line.substr(open + 1, close - open - 1));
      if (name.empty()) fail(line_no, "empty signal name");
      if (equals_lower(keyword, "input"))
        input_names.push_back(IoStatement{name, line_no});
      else if (equals_lower(keyword, "output"))
        output_names.push_back(IoStatement{name, line_no});
      else
        fail(line_no, "unknown directive '" + to_lower(keyword) + "'");
      check_tail(line.substr(close + 1), line_no);
      continue;
    }

    // name = TYPE(args)
    const std::string_view name = trim(line.substr(0, equals));
    const std::string_view rhs = trim(line.substr(equals + 1));
    const auto rhs_open = rhs.find('(');
    const auto rhs_close = rhs.rfind(')');
    if (name.empty() || rhs_open == std::string_view::npos ||
        rhs_close == std::string_view::npos || rhs_close < rhs_open)
      fail(line_no, "expected name = TYPE(a, b, ...)");
    const GateType type = parse_gate_type(trim(rhs.substr(0, rhs_open)), line_no);
    const std::string_view args =
        rhs.substr(rhs_open + 1, rhs_close - rhs_open - 1);
    const auto first_fanin = static_cast<std::uint32_t>(fanin_names.size());
    for (std::size_t start = 0;;) {
      const auto comma = args.find(',', start);
      const std::string_view piece = trim(args.substr(
          start, comma == std::string_view::npos ? comma : comma - start));
      if (piece.empty()) fail(line_no, "empty fanin name");
      fanin_names.push_back(piece);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    const auto num_fanins =
        static_cast<std::uint32_t>(fanin_names.size() - first_fanin);
    if ((type == GateType::kNot || type == GateType::kBuf) && num_fanins != 1)
      fail(line_no, "NOT/BUFF takes exactly one fanin, got " +
                        std::to_string(num_fanins));
    check_tail(rhs.substr(rhs_close + 1), line_no);
    statements.push_back(
        GateStatement{name, type, first_fanin, num_fanins, line_no});
  }

  // One name table for inputs and gate statements alike.
  NameTable signals(input_names.size() + statements.size());
  Circuit circuit(std::move(circuit_name));
  circuit.reserve(input_names.size() + statements.size() + output_names.size(),
                  fanin_names.size() + output_names.size());
  for (const IoStatement& input : input_names) {
    const auto [signal, fresh] = signals.insert(Signal{input.name});
    if (!fresh)
      fail(input.line_no, "duplicate signal '" + std::string(input.name) + "'");
    signal->gate = circuit.add_input(std::string(input.name));
  }
  for (std::uint32_t i = 0; i < statements.size(); ++i) {
    GateStatement& statement = statements[i];
    const auto [signal, fresh] =
        signals.insert(Signal{statement.name, kNullGate, i});
    if (!fresh)
      fail(statement.line_no,
           "duplicate signal '" + std::string(statement.name) + "'");
    statement.signal = signal;
  }

  // Build gate statements in dependency order (use-before-def is
  // allowed): an iterative DFS, so long chains cannot overflow the
  // call stack.  Each fanin is looked up once; the entry it resolved
  // to is kept for building the gate.
  std::vector<const Signal*> resolved(fanin_names.size());
  std::vector<std::uint8_t> state(statements.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;
  std::vector<GateId> fanins;
  for (std::uint32_t root = 0; root < statements.size(); ++root) {
    if (state[root] == 2) continue;
    stack.assign(1, {root, 0});
    state[root] = 1;
    while (!stack.empty()) {
      auto& [index, next_fanin] = stack.back();
      const GateStatement& statement = statements[index];
      if (next_fanin < statement.num_fanins) {
        const std::uint32_t slot = statement.first_fanin + next_fanin++;
        const Signal* signal = signals.find(fanin_names[slot]);
        if (signal == nullptr)
          fail(statement.line_no,
               "undefined signal '" + std::string(fanin_names[slot]) + "'");
        resolved[slot] = signal;
        if (signal->gate != kNullGate) continue;
        const std::uint32_t pending = signal->statement;
        if (state[pending] == 1)
          fail(statement.line_no, "combinational cycle through '" +
                                      std::string(fanin_names[slot]) + "'");
        state[pending] = 1;
        stack.emplace_back(pending, 0);
        continue;
      }
      fanins.resize(statement.num_fanins);
      for (std::uint32_t k = 0; k < statement.num_fanins; ++k)
        fanins[k] = resolved[statement.first_fanin + k]->gate;
      statement.signal->gate = circuit.add_gate(
          statement.type, std::string(statement.name), fanins);
      state[index] = 2;
      stack.pop_back();
    }
  }

  for (const IoStatement& output : output_names) {
    const Signal* signal = signals.find(output.name);
    if (signal == nullptr)
      fail(output.line_no,
           "OUTPUT of undefined signal '" + std::string(output.name) + "'");
    circuit.add_output(std::string(output.name), signal->gate);
  }
  if (output_names.empty())
    fail(line_no == 0 ? 1 : line_no, "no OUTPUT declared");
  circuit.finalize();
  return circuit;
}

}  // namespace

Circuit read_bench_string(const std::string& text, std::string circuit_name) {
  return parse_bench(text, std::move(circuit_name));
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open bench file: " + path);
  // A directory opens like a file but fails on the first read; that
  // (or any other read error) sets badbit rather than looking empty.
  std::string text;
  char buffer[1 << 14];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0)
    text.append(buffer, static_cast<std::size_t>(in.gcount()));
  if (in.bad()) throw std::runtime_error("cannot read bench file: " + path);
  // Derive a circuit name from the file name.
  auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.size() > 6 && base.substr(base.size() - 6) == ".bench")
    base.resize(base.size() - 6);
  return parse_bench(text, std::move(base));
}

void write_bench(std::ostream& out, const Circuit& circuit) {
  out << "# " << (circuit.name().empty() ? "circuit" : circuit.name()) << "\n";
  for (GateId id : circuit.inputs())
    out << "INPUT(" << circuit.gate(id).name << ")\n";
  // .bench names outputs by signal; when a PO marker carries its own
  // name, alias it through a buffer so the name survives a round trip.
  std::vector<GateId> aliased_pos;
  for (GateId id : circuit.outputs()) {
    const std::string& driver_name =
        circuit.gate(circuit.gate(id).fanins.front()).name;
    const std::string& po_name = circuit.gate(id).name;
    if (po_name.empty() || po_name == driver_name) {
      out << "OUTPUT(" << driver_name << ")\n";
    } else {
      out << "OUTPUT(" << po_name << ")\n";
      aliased_pos.push_back(id);
    }
  }
  for (GateId id : aliased_pos)
    out << circuit.gate(id).name << " = BUFF("
        << circuit.gate(circuit.gate(id).fanins.front()).name << ")\n";
  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput || gate.type == GateType::kOutput)
      continue;
    out << gate.name << " = "
        << (gate.type == GateType::kBuf ? "BUFF"
                                        : std::string(gate_type_name(gate.type)))
        << "(";
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i != 0) out << ", ";
      out << circuit.gate(gate.fanins[i]).name;
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream out;
  write_bench(out, circuit);
  return out.str();
}

}  // namespace rd
