#include "sat/cnf.h"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rd {

namespace {

/// Sink for generated clauses: either a solver or a DIMACS text
/// buffer.
struct ClauseSink {
  SatSolver* solver = nullptr;
  std::vector<std::vector<SatLit>>* collected = nullptr;
  void add(std::vector<SatLit> clause) {
    if (solver != nullptr) solver->add_clause(clause);
    if (collected != nullptr) collected->push_back(std::move(clause));
  }
};

/// Clauses for L <-> AND(inputs): (~L v x_i) for all i, and
/// (L v ~x_1 v ... v ~x_k).  OR/NAND/NOR come out of polarity games.
void encode_and(ClauseSink& sink, SatLit output,
                const std::vector<SatLit>& inputs) {
  std::vector<SatLit> big;
  big.reserve(inputs.size() + 1);
  big.push_back(output);
  for (const SatLit input : inputs) {
    sink.add({lit_negate(output), input});
    big.push_back(lit_negate(input));
  }
  sink.add(std::move(big));
}

void encode_equal(ClauseSink& sink, SatLit a, SatLit b) {
  sink.add({lit_negate(a), b});
  sink.add({a, lit_negate(b)});
}

/// Encodes one gate given existing input literals; returns nothing —
/// the output variable is preallocated.
void encode_gate(ClauseSink& sink, const Circuit& circuit, GateId id,
                 const std::vector<SatVar>& vars) {
  const Gate& gate = circuit.gate(id);
  const SatLit out = mk_lit(vars[id]);
  std::vector<SatLit> inputs;
  inputs.reserve(gate.fanins.size());
  for (GateId fanin : gate.fanins) inputs.push_back(mk_lit(vars[fanin]));
  switch (gate.type) {
    case GateType::kInput:
      break;
    case GateType::kOutput:
    case GateType::kBuf:
      encode_equal(sink, out, inputs[0]);
      break;
    case GateType::kNot:
      encode_equal(sink, out, lit_negate(inputs[0]));
      break;
    case GateType::kAnd:
      encode_and(sink, out, inputs);
      break;
    case GateType::kNand:
      encode_and(sink, lit_negate(out), inputs);
      break;
    case GateType::kOr: {
      // OR(x) = ~AND(~x).
      for (SatLit& input : inputs) input = lit_negate(input);
      encode_and(sink, lit_negate(out), inputs);
      break;
    }
    case GateType::kNor: {
      for (SatLit& input : inputs) input = lit_negate(input);
      encode_and(sink, out, inputs);
      break;
    }
  }
}

}  // namespace

CircuitCnf::CircuitCnf(const Circuit& circuit, SatSolver& solver) {
  vars_.resize(circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    vars_[id] = solver.new_var();
  ClauseSink sink;
  sink.solver = &solver;
  for (GateId id : circuit.topo_order())
    encode_gate(sink, circuit, id, vars_);
}

CircuitCnf::CircuitCnf(const Circuit& circuit, SatSolver& solver,
                       GateId root) {
  const std::vector<GateId> cone = circuit.fanin_cone(root);
  vars_.resize(circuit.num_gates());
  for (GateId id : cone) vars_[id] = solver.new_var();
  ClauseSink sink;
  sink.solver = &solver;
  for (GateId id : cone) encode_gate(sink, circuit, id, vars_);
}

std::string write_dimacs_string(const Circuit& circuit) {
  std::vector<SatVar> vars(circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    vars[id] = static_cast<SatVar>(id);
  std::vector<std::vector<SatLit>> clauses;
  ClauseSink sink;
  sink.collected = &clauses;
  for (GateId id : circuit.topo_order())
    encode_gate(sink, circuit, id, vars);

  std::ostringstream out;
  out << "c rdfast Tseitin encoding of "
      << (circuit.name().empty() ? "circuit" : circuit.name()) << "\n";
  for (GateId pi : circuit.inputs())
    out << "c input " << circuit.gate(pi).name << " = var " << (pi + 1)
        << "\n";
  for (GateId po : circuit.outputs())
    out << "c output " << circuit.gate(po).name << " = var " << (po + 1)
        << "\n";
  out << "p cnf " << circuit.num_gates() << ' ' << clauses.size() << "\n";
  for (const auto& clause : clauses) {
    for (const SatLit lit : clause)
      out << (lit_negative(lit) ? "-" : "") << (lit_var(lit) + 1) << ' ';
    out << "0\n";
  }
  return out.str();
}

std::optional<bool> sat_sensitizable(const Circuit& circuit,
                                     const CircuitCnf& cnf, SatSolver& solver,
                                     const LogicalPath& path,
                                     Criterion criterion,
                                     const InputSort* sort,
                                     std::uint64_t max_conflicts) {
  std::vector<SatLit> assumptions;
  for_each_path_condition(circuit, path, criterion, sort,
                          [&](GateId gate, bool value) {
                            assumptions.push_back(cnf.gate_lit(gate, value));
                            return true;
                          });
  switch (solver.solve(assumptions, max_conflicts)) {
    case SatResult::kSat: return true;
    case SatResult::kUnsat: return false;
    case SatResult::kUnknown: return std::nullopt;
  }
  return std::nullopt;
}

std::optional<bool> sat_equivalent(const Circuit& a, const Circuit& b,
                                   std::uint64_t max_conflicts) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size())
    return false;
  SatSolver solver;
  const CircuitCnf a_cnf(a, solver);
  const CircuitCnf b_cnf(b, solver);

  // Tie PIs together by name.
  std::unordered_map<std::string, GateId> a_pis;
  for (GateId pi : a.inputs()) a_pis.emplace(a.gate(pi).name, pi);
  for (GateId pi : b.inputs()) {
    const auto it = a_pis.find(b.gate(pi).name);
    if (it == a_pis.end()) return false;
    solver.add_clause({a_cnf.gate_lit(it->second, true),
                       b_cnf.gate_lit(pi, false)});
    solver.add_clause({a_cnf.gate_lit(it->second, false),
                       b_cnf.gate_lit(pi, true)});
  }

  // Miter: some PO pair differs.
  std::unordered_map<std::string, GateId> b_pos;
  for (GateId po : b.outputs()) b_pos.emplace(b.gate(po).name, po);
  std::vector<SatLit> any_difference;
  for (GateId po : a.outputs()) {
    const auto it = b_pos.find(a.gate(po).name);
    if (it == b_pos.end()) return false;
    const SatVar diff = solver.new_var();
    const SatLit d = mk_lit(diff);
    const SatLit x = mk_lit(a_cnf.gate_var(po));
    const SatLit y = mk_lit(b_cnf.gate_var(it->second));
    // d <-> (x XOR y)
    solver.add_clause({lit_negate(d), x, y});
    solver.add_clause({lit_negate(d), lit_negate(x), lit_negate(y)});
    solver.add_clause({d, lit_negate(x), y});
    solver.add_clause({d, x, lit_negate(y)});
    any_difference.push_back(d);
  }
  solver.add_clause(std::move(any_difference));

  switch (solver.solve({}, max_conflicts)) {
    case SatResult::kSat: return false;    // a distinguishing input exists
    case SatResult::kUnsat: return true;   // functionally identical
    case SatResult::kUnknown: return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace rd
