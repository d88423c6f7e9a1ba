// ISCAS-85 ".bench" netlist format reader and writer.
//
// The format used by the ISCAS benchmark distributions:
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//
// Signals are named; OUTPUT(x) marks signal x as observed, which this
// library models as a PO marker gate carrying the signal's name.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/circuit.h"

namespace rd {

/// Parses a circuit from bench-format text.  Throws std::runtime_error
/// with a line number on malformed input, including text after a
/// statement's closing ')' and a netlist without any OUTPUT.  The
/// returned circuit is finalized.
Circuit read_bench_string(const std::string& text,
                          std::string circuit_name = {});

/// Reads a .bench file from disk; the circuit is named after the file.
/// A path that cannot be opened or read (a directory, say) throws
/// std::runtime_error.
Circuit read_bench_file(const std::string& path);

/// Serializes a finalized circuit to bench format.  BUF gates are written
/// as BUFF (the ISCAS spelling).  Gate names must be unique.
void write_bench(std::ostream& out, const Circuit& circuit);

/// Serialization to a string.
std::string write_bench_string(const Circuit& circuit);

}  // namespace rd
