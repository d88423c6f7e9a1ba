#include "paths/prefix_tree.h"

#include "paths/counting.h"

namespace rd {

BigUint path_tree_edge_count(const Circuit& circuit) {
  // cur[g]: distinct physical prefixes of the current depth ending at
  // g.  Every step's total influx is the number of new tree edges.
  std::vector<BigUint> cur(circuit.num_gates());
  for (GateId pi : circuit.inputs()) cur[pi] = BigUint(1);
  BigUint edges;
  bool any = true;
  while (any) {
    any = false;
    std::vector<BigUint> next(circuit.num_gates());
    for (GateId g = 0; g < circuit.num_gates(); ++g) {
      if (cur[g].is_zero()) continue;
      for (LeadId lead : circuit.gate(g).fanout_leads)
        next[circuit.lead(lead).sink] += cur[g];
    }
    for (GateId g = 0; g < circuit.num_gates(); ++g) {
      if (next[g].is_zero()) continue;
      edges += next[g];
      any = true;
    }
    cur = std::move(next);
  }
  return edges;
}

BigUint total_path_lead_count(const Circuit& circuit) {
  const PathCounts counts(circuit);
  BigUint total;
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    total += counts.paths_through(lead);
  return total;
}

}  // namespace rd
