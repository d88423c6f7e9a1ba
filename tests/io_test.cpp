// Unit tests for the bench and PLA readers/writers: fixtures,
// round-trips, use-before-def handling and error reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "io/pla_io.h"
#include "io/verilog_io.h"
#include "sim/logic_sim.h"

namespace rd {
namespace {

constexpr const char* kC17Bench = R"(# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIo, ParsesC17) {
  const Circuit circuit = read_bench_string(kC17Bench, "c17");
  EXPECT_EQ(circuit.inputs().size(), 5u);
  EXPECT_EQ(circuit.outputs().size(), 2u);
  EXPECT_EQ(circuit.num_logic_gates(), 6u);
  EXPECT_EQ(circuit.name(), "c17");
}

TEST(BenchIo, ParsedC17MatchesBuiltin) {
  const Circuit parsed = read_bench_string(kC17Bench);
  const Circuit builtin = c17();
  ASSERT_EQ(parsed.inputs().size(), builtin.inputs().size());
  // Functional equivalence over all 32 input vectors.
  for (std::uint64_t minterm = 0; minterm < 32; ++minterm)
    EXPECT_EQ(evaluate_minterm(parsed, minterm),
              evaluate_minterm(builtin, minterm))
        << "minterm " << minterm;
}

TEST(BenchIo, RoundTrip) {
  const Circuit original = read_bench_string(kC17Bench, "c17");
  const std::string text = write_bench_string(original);
  const Circuit reparsed = read_bench_string(text, "c17");
  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  ASSERT_EQ(reparsed.outputs().size(), original.outputs().size());
  for (std::uint64_t minterm = 0; minterm < 32; ++minterm)
    EXPECT_EQ(evaluate_minterm(reparsed, minterm),
              evaluate_minterm(original, minterm));
}

TEST(BenchIo, UseBeforeDefinition) {
  const Circuit circuit = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(mid)\nmid = BUFF(a)\n");
  EXPECT_EQ(circuit.num_logic_gates(), 2u);
  EXPECT_EQ(evaluate_minterm(circuit, 0)[0], true);
  EXPECT_EQ(evaluate_minterm(circuit, 1)[0], false);
}

TEST(BenchIo, AcceptsGateSpellings) {
  const Circuit circuit = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\n"
      "x = and(a, b)\ny = INV(x)\nz = buf(y)\no = NOR(z, a)\n");
  EXPECT_EQ(circuit.num_logic_gates(), 4u);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    read_bench_string("INPUT(a)\nbroken line here\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(BenchIo, RejectsBadInput) {
  EXPECT_THROW(read_bench_string("x = FROB(a)\nINPUT(a)\n"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(a)\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("OUTPUT(nowhere)\n"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nx = NOT(y)\ny = NOT(x)\n"),
               std::runtime_error);  // cycle
  EXPECT_THROW(read_bench_string("INPUT(a)\nx = NOT(missing)\n"),
               std::runtime_error);
}

// Malformed-input corpus: every entry must produce a line-numbered
// bench error carrying the expected detail.
TEST(BenchIo, MalformedCorpusReportsLineAndDetail) {
  struct Case {
    const char* text;
    const char* expect_line;
    const char* expect_detail;
  };
  const Case corpus[] = {
      // Duplicate gate name (second definition is the reported line).
      {"INPUT(a)\nx = NOT(a)\nx = BUFF(a)\nOUTPUT(x)\n", "bench line 3",
       "duplicate signal 'x'"},
      // Duplicate input declaration.
      {"INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "bench line 2",
       "duplicate signal 'a'"},
      // Gate redefining an input.
      {"INPUT(a)\na = NOT(a)\n", "bench line 2", "duplicate signal 'a'"},
      // OUTPUT of a signal that is never defined.
      {"INPUT(a)\ny = NOT(a)\nOUTPUT(nowhere)\n", "bench line 3",
       "OUTPUT of undefined signal 'nowhere'"},
      // Dangling fanin reference.
      {"INPUT(a)\nx = NAND(a, ghost)\nOUTPUT(x)\n", "bench line 2",
       "undefined signal 'ghost'"},
      // Truncated statement: the ')' never arrives.
      {"INPUT(a)\nx = NAND(a,\n", "bench line 2",
       "expected name = TYPE(a, b, ...)"},
      // Arity: NOT and BUFF are strictly unary.
      {"INPUT(a)\nINPUT(b)\nx = NOT(a, b)\nOUTPUT(x)\n", "bench line 3",
       "NOT/BUFF takes exactly one fanin, got 2"},
      {"INPUT(a)\nx = BUFF()\nOUTPUT(x)\n", "bench line 2",
       "empty fanin name"},
      // Text after a statement's closing ')' is never dropped silently.
      {"INPUT(a)\ny = NOT(a) garbage here\nOUTPUT(y)\n", "bench line 2",
       "unexpected text 'garbage here' after ')'"},
      {"INPUT(a) b\nOUTPUT(a)\n", "bench line 1",
       "unexpected text 'b' after ')'"},
      // A netlist must observe something; the line is the last one.
      {"INPUT(a)\ny = NOT(a)\n", "bench line 2", "no OUTPUT declared"},
      {"", "bench line 1", "no OUTPUT declared"},
  };
  for (const Case& entry : corpus) {
    try {
      read_bench_string(entry.text);
      FAIL() << "expected parse failure for:\n" << entry.text;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(entry.expect_line), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_line << "'";
      EXPECT_NE(message.find(entry.expect_detail), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_detail
          << "'";
    }
  }
}

TEST(BenchIo, CommentsAndBlanksIgnored) {
  const Circuit circuit = read_bench_string(
      "# header\n\nINPUT(a)\n  # indented comment\nOUTPUT(a)\n");
  EXPECT_EQ(circuit.inputs().size(), 1u);
  EXPECT_EQ(circuit.outputs().size(), 1u);
  // Blanks and a comment may also follow a statement's ')'.
  const Circuit trailing = read_bench_string(
      "INPUT(a)  # the input\nOUTPUT(y)\t\ny = NOT(a) # inverter\n");
  EXPECT_EQ(trailing.num_logic_gates(), 1u);
  EXPECT_EQ(trailing.outputs().size(), 1u);
}

constexpr const char* kSmallPla = R"(# two functions
.i 3
.o 2
.p 3
1-0 10
011 11
--1 01
.e
)";

TEST(PlaIo, ParsesCover) {
  const Pla pla = read_pla_string(kSmallPla, "small");
  EXPECT_EQ(pla.num_inputs, 3u);
  EXPECT_EQ(pla.num_outputs, 2u);
  ASSERT_EQ(pla.cubes.size(), 3u);
  EXPECT_EQ(pla.cubes[0].inputs[0], CubeLit::kPositive);
  EXPECT_EQ(pla.cubes[0].inputs[1], CubeLit::kDontCare);
  EXPECT_EQ(pla.cubes[0].inputs[2], CubeLit::kNegative);
  EXPECT_TRUE(pla.cubes[0].outputs[0]);
  EXPECT_FALSE(pla.cubes[0].outputs[1]);
  EXPECT_TRUE(pla.cubes[1].outputs[1]);
  EXPECT_EQ(pla.input_labels.size(), 3u);
}

TEST(PlaIo, RoundTrip) {
  const Pla pla = read_pla_string(kSmallPla);
  const Pla again = read_pla_string(write_pla_string(pla));
  ASSERT_EQ(again.cubes.size(), pla.cubes.size());
  for (std::size_t i = 0; i < pla.cubes.size(); ++i) {
    EXPECT_EQ(again.cubes[i].inputs, pla.cubes[i].inputs);
    EXPECT_EQ(again.cubes[i].outputs, pla.cubes[i].outputs);
  }
}

TEST(PlaIo, RejectsMalformed) {
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n111 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string("10 1\n"), std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\n.p 5\n10 1\n.e\n"),
               std::runtime_error);
  EXPECT_THROW(read_pla_string(".i 2\n.o 1\nq0 1\n.e\n"), std::runtime_error);
}

// Malformed-input corpus: every entry must produce a line-numbered
// pla error carrying the expected detail — never a bare
// std::invalid_argument / std::out_of_range escaping from the standard
// library's number parsing.
TEST(PlaIo, MalformedCorpusReportsLineAndDetail) {
  struct Case {
    const char* text;
    const char* expect_line;
    const char* expect_detail;
  };
  const Case corpus[] = {
      {".i abc\n.o 1\n- 1\n.e\n", "pla line 1",
       "not a non-negative integer"},
      {".i 2\n.o -1\n10 1\n.e\n", "pla line 2",
       "not a non-negative integer"},
      {".i 2\n.o 1\n.p 1x\n10 1\n.e\n", "pla line 3",
       "not a non-negative integer"},
      {".i 99999999999999999999999999\n.o 1\n- 1\n.e\n", "pla line 1",
       "out of range"},
      {".i 4294967296\n.o 1\n- 1\n.e\n", "pla line 1", "implausibly large"},
      {".i\n.o 1\n- 1\n.e\n", "pla line 1", ".i needs a count"},
      {".i 3\n.o 1\n11 1\n.e\n", "pla line 3",
       "got 3 literals, .i/.o declare 4"},
      {".i 2\n.o 1\n.e\nstray\n", "pla line 4", "content after .e"},
      {".i 2\n.o 1\n.frob 2\n10 1\n.e\n", "pla line 3", "unknown directive"},
  };
  for (const Case& entry : corpus) {
    try {
      read_pla_string(entry.text);
      FAIL() << "expected parse failure for:\n" << entry.text;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(entry.expect_line), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_line << "'";
      EXPECT_NE(message.find(entry.expect_detail), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_detail
          << "'";
    }
  }
}

TEST(PlaIo, DirectivesTolerateRepeatedBlanks) {
  // ".i  3" (double space) must parse identically to ".i 3".
  const Pla pla = read_pla_string(".i  3\n.o \t 1\n1-0  1\n.e\n");
  EXPECT_EQ(pla.num_inputs, 3u);
  EXPECT_EQ(pla.num_outputs, 1u);
  ASSERT_EQ(pla.cubes.size(), 1u);
}

TEST(PlaIo, LabelsRespected) {
  const Pla pla = read_pla_string(
      ".i 2\n.o 1\n.ilb x y\n.ob f\n11 1\n.e\n");
  EXPECT_EQ(pla.input_labels[1], "y");
  EXPECT_EQ(pla.output_labels[0], "f");
}

TEST(BenchIo, ReadsShippedDataFiles) {
  // The repository ships sample netlists under data/; the file-based
  // reader derives the circuit name from the file name.
  const Circuit circuit = read_bench_file("data/c17.bench");
  EXPECT_EQ(circuit.name(), "c17");
  EXPECT_EQ(circuit.num_logic_gates(), 6u);
  for (std::uint64_t minterm = 0; minterm < 32; ++minterm)
    EXPECT_EQ(evaluate_minterm(circuit, minterm),
              evaluate_minterm(c17(), minterm));
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/nowhere.bench"),
               std::runtime_error);
}

TEST(BenchIo, DirectoryFailsLikeAMissingFile) {
  // A directory opens like a file; it must not load as an empty circuit.
  try {
    read_bench_file("data");
    FAIL() << "expected a read failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cannot read bench file: data"),
              std::string::npos)
        << error.what();
  }
}

TEST(BenchIo, FileRoundTripThroughDisk) {
  const Circuit original = paper_example_circuit();
  const std::string path = ::testing::TempDir() + "/rt.bench";
  {
    std::ofstream out(path);
    write_bench(out, original);
  }
  const Circuit reparsed = read_bench_file(path);
  EXPECT_EQ(reparsed.name(), "rt");
  for (std::uint64_t minterm = 0; minterm < 8; ++minterm)
    EXPECT_EQ(evaluate_minterm(reparsed, minterm),
              evaluate_minterm(original, minterm));
}

TEST(BenchIo, DegenerateCircuits) {
  // PI wired straight to a PO.
  const Circuit direct = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  EXPECT_EQ(direct.num_logic_gates(), 0u);
  EXPECT_TRUE(evaluate_minterm(direct, 1)[0]);
  EXPECT_FALSE(evaluate_minterm(direct, 0)[0]);
  // Same signal observed twice.
  const Circuit twice =
      read_bench_string("INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n");
  EXPECT_EQ(twice.outputs().size(), 2u);
  // An unused input is legal.
  const Circuit dangling =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n");
  EXPECT_EQ(dangling.inputs().size(), 2u);
}

// Single-edit mutants of real netlists: delete, duplicate or swap one
// byte or one line.  Each must either throw a std::runtime_error or
// load a circuit whose netlist survives a write/read round trip.
// The reader slices views out of the text, so an off-by-one at a line
// end, a ')' or a ',' shows up here (and under AddressSanitizer).
std::vector<std::string> single_edit_mutants(const std::string& text,
                                             std::size_t byte_stride) {
  std::vector<std::string> mutants;
  for (std::size_t i = 0; i < text.size(); i += byte_stride) {
    std::string deleted = text;
    deleted.erase(i, 1);
    mutants.push_back(std::move(deleted));
    std::string duplicated = text;
    duplicated.insert(i, 1, text[i]);
    mutants.push_back(std::move(duplicated));
    if (i + 1 < text.size() && text[i] != text[i + 1]) {
      std::string swapped = text;
      std::swap(swapped[i], swapped[i + 1]);
      mutants.push_back(std::move(swapped));
    }
  }
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  auto join = [](const std::vector<std::string>& pieces) {
    std::string joined;
    for (const std::string& piece : pieces) joined += piece;
    return joined;
  };
  for (std::size_t j = 0; j < lines.size(); ++j) {
    std::vector<std::string> edited = lines;
    edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(j));
    mutants.push_back(join(edited));
    edited = lines;
    edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(j), lines[j]);
    mutants.push_back(join(edited));
    if (j + 1 < lines.size()) {
      edited = lines;
      std::swap(edited[j], edited[j + 1]);
      mutants.push_back(join(edited));
    }
  }
  return mutants;
}

/// The netlist as a text that does not depend on gate ids: the PIs
/// and POs in order, then every logic gate with its fanins, by name.
std::string netlist_signature(const Circuit& circuit) {
  std::string signature;
  for (GateId id : circuit.inputs())
    signature += "INPUT " + circuit.gate(id).name + "\n";
  for (GateId id : circuit.outputs())
    signature += "OUTPUT " + circuit.gate(id).name + " <- " +
                 circuit.gate(circuit.gate(id).fanins.front()).name + "\n";
  std::vector<std::string> gates;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput || gate.type == GateType::kOutput)
      continue;
    std::string line = gate.name + " = " +
                       std::string(gate_type_name(gate.type)) + "(";
    for (std::size_t pin = 0; pin < gate.fanins.size(); ++pin)
      line += (pin == 0 ? "" : ", ") + circuit.gate(gate.fanins[pin]).name;
    gates.push_back(line + ")\n");
  }
  std::sort(gates.begin(), gates.end());
  for (const std::string& line : gates) signature += line;
  return signature;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchIo, SingleEditMutantsLoadOrThrow) {
  struct Source {
    std::string name;
    std::string text;
    std::size_t byte_stride;  // every byte of the small files
  };
  const Source sources[] = {
      {"c17", read_text_file("data/c17.bench"), 1},
      {"paper_example", read_text_file("data/paper_example.bench"), 1},
      {"c432", write_bench_string(make_benchmark("c432")), 3},
  };
  for (const Source& source : sources) {
    ASSERT_FALSE(source.text.empty()) << source.name;
    ASSERT_NO_THROW(read_bench_string(source.text, source.name));
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (const std::string& mutant :
         single_edit_mutants(source.text, source.byte_stride)) {
      Circuit circuit;
      try {
        circuit = read_bench_string(mutant, source.name);
      } catch (const std::runtime_error&) {
        ++rejected;
        continue;
      }
      ++loaded;
      // The writer emits gates in topological order, so ids may move;
      // names, types, pins and the PI/PO order may not.
      const Circuit reread =
          read_bench_string(write_bench_string(circuit), source.name);
      EXPECT_EQ(netlist_signature(reread), netlist_signature(circuit))
          << "mutant of " << source.name << ":\n"
          << mutant;
    }
    // Both outcomes occur, so the corpus exercises both paths.
    EXPECT_GT(loaded, 0u) << source.name;
    EXPECT_GT(rejected, 0u) << source.name;
  }
}

TEST(PlaIo, ReadsShippedDataFile) {
  std::ifstream in("data/small.pla");
  ASSERT_TRUE(in.good()) << "expects the repo root as working directory";
  const Pla pla = read_pla(in, "small");
  EXPECT_EQ(pla.num_inputs, 4u);
  EXPECT_EQ(pla.num_outputs, 2u);
  EXPECT_EQ(pla.cubes.size(), 4u);
}

TEST(VerilogIo, EmitsStructuralModule) {
  const Circuit circuit = c17();
  const std::string text = write_verilog_string(circuit, "c17");
  EXPECT_NE(text.find("module c17("), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  // c17's six NANDs plus two output buffers.
  std::size_t nands = 0;
  std::size_t bufs = 0;
  for (std::size_t pos = 0; (pos = text.find("nand ", pos)) != std::string::npos;
       ++pos)
    ++nands;
  for (std::size_t pos = 0; (pos = text.find("buf ", pos)) != std::string::npos;
       ++pos)
    ++bufs;
  EXPECT_EQ(nands, 6u);
  EXPECT_EQ(bufs, 2u);
  // Numeric bench names are sanitized into identifiers.
  EXPECT_EQ(text.find(" 22,"), std::string::npos);
  EXPECT_NE(text.find("n22"), std::string::npos);
}

TEST(VerilogIo, SanitizesAndDisambiguates) {
  Circuit circuit("weird-name");
  const GateId a = circuit.add_input("a b");   // space
  const GateId b = circuit.add_input("a_b");   // collides after sanitizing
  const GateId g = circuit.add_gate(GateType::kOr, "3x", {a, b});
  circuit.add_output("o!", g);
  circuit.finalize();
  const std::string text = write_verilog_string(circuit);
  EXPECT_NE(text.find("module weird_name("), std::string::npos);
  EXPECT_NE(text.find("a_b"), std::string::npos);
  EXPECT_NE(text.find("n3x"), std::string::npos);
  // No raw illegal characters escaped into the output.
  EXPECT_EQ(text.find('!'), std::string::npos);
}

TEST(VerilogIo, EveryGateInstantiatedOnce) {
  const Circuit circuit = paper_example_circuit();
  const std::string text = write_verilog_string(circuit);
  std::size_t instances = 0;
  for (std::size_t pos = 0; (pos = text.find("\n  and ", pos)) != std::string::npos;
       ++pos)
    ++instances;
  for (std::size_t pos = 0; (pos = text.find("\n  or ", pos)) != std::string::npos;
       ++pos)
    ++instances;
  EXPECT_EQ(instances, 3u);  // g1, h, y
}

TEST(VerilogIo, ParsesHandwrittenModule) {
  const Circuit circuit = read_verilog_string(
      "module half(a, b, s, c);\n"
      "  input a, b;\n"
      "  output s, c;\n"
      "  wire na, nb, t0, t1;\n"
      "  not u0(na, a);\n"
      "  not u1(nb, b);\n"
      "  and u2(t0, a, nb);\n"
      "  and u3(t1, na, b);\n"
      "  or u4(s, t0, t1);\n"
      "  and u5(c, a, b);\n"
      "endmodule\n");
  EXPECT_EQ(circuit.name(), "half");
  EXPECT_EQ(circuit.inputs().size(), 2u);
  EXPECT_EQ(circuit.outputs().size(), 2u);
  EXPECT_EQ(circuit.num_logic_gates(), 6u);
  // XOR truth table on the sum output, AND on the carry.
  for (std::uint64_t minterm = 0; minterm < 4; ++minterm) {
    const bool a = (minterm & 1) != 0;
    const bool b = (minterm & 2) != 0;
    const auto outputs = evaluate_minterm(circuit, minterm);
    EXPECT_EQ(outputs[0], a != b) << "minterm " << minterm;
    EXPECT_EQ(outputs[1], a && b) << "minterm " << minterm;
  }
}

TEST(VerilogIo, UseBeforeDefinitionAndComments) {
  const Circuit circuit = read_verilog_string(
      "// leading comment\n"
      "module m(a, y);  /* inline */\n"
      "  input a;\n"
      "  output y;\n"
      "  wire mid;\n"
      "  /* block\n"
      "     spanning lines */\n"
      "  not u1(y, mid);   // uses mid before its driver appears\n"
      "  buf u0(mid, a);\n"
      "endmodule\n");
  EXPECT_EQ(circuit.num_logic_gates(), 2u);
  EXPECT_TRUE(evaluate_minterm(circuit, 0)[0]);
  EXPECT_FALSE(evaluate_minterm(circuit, 1)[0]);
}

TEST(VerilogIo, RoundTripC17) {
  const Circuit original = c17();
  const Circuit reparsed = read_verilog_string(
      write_verilog_string(original, "c17"), "c17");
  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  ASSERT_EQ(reparsed.outputs().size(), original.outputs().size());
  // The writer's PO-alias bufs collapse back into PO markers, so the
  // logic-gate count survives the round trip exactly.
  EXPECT_EQ(reparsed.num_logic_gates(), original.num_logic_gates());
  for (std::uint64_t minterm = 0; minterm < 32; ++minterm)
    EXPECT_EQ(evaluate_minterm(reparsed, minterm),
              evaluate_minterm(original, minterm))
        << "minterm " << minterm;
}

TEST(VerilogIo, RoundTripPaperExample) {
  const Circuit original = paper_example_circuit();
  const Circuit reparsed =
      read_verilog_string(write_verilog_string(original));
  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.num_logic_gates(), original.num_logic_gates());
  for (std::uint64_t minterm = 0;
       minterm < (std::uint64_t{1} << original.inputs().size()); ++minterm)
    EXPECT_EQ(evaluate_minterm(reparsed, minterm),
              evaluate_minterm(original, minterm))
        << "minterm " << minterm;
}

TEST(VerilogIo, FileRoundTripThroughDisk) {
  const Circuit original = c17();
  const std::string path = ::testing::TempDir() + "/rt_c17.v";
  {
    std::ofstream out(path);
    write_verilog(out, original, "c17");
  }
  const Circuit reparsed = read_verilog_file(path);
  EXPECT_EQ(reparsed.name(), "rt_c17");  // derived from the file name
  for (std::uint64_t minterm = 0; minterm < 32; ++minterm)
    EXPECT_EQ(evaluate_minterm(reparsed, minterm),
              evaluate_minterm(original, minterm));
}

TEST(VerilogIo, MissingFileThrows) {
  EXPECT_THROW(read_verilog_file("/nonexistent/nowhere.v"),
               std::runtime_error);
}

TEST(VerilogIo, BufKeptWhenAliasFeedsOtherLogic) {
  // A buf driving an output that is ALSO consumed downstream is real
  // logic, not the writer's PO alias — it must survive as a gate.
  const Circuit circuit = read_verilog_string(
      "module m(a, y, z);\n"
      "  input a;\n"
      "  output y, z;\n"
      "  buf u0(y, a);\n"
      "  not u1(z, y);\n"
      "endmodule\n");
  EXPECT_EQ(circuit.num_logic_gates(), 2u);
  EXPECT_TRUE(evaluate_minterm(circuit, 1)[0]);
  EXPECT_FALSE(evaluate_minterm(circuit, 1)[1]);
}

// Malformed-input corpus: every entry must produce a line-numbered
// verilog error carrying the expected detail — truncated files,
// duplicate drivers/declarations, dangling fanin references and
// friends.
TEST(VerilogIo, MalformedCorpusReportsLineAndDetail) {
  struct Case {
    const char* text;
    const char* expect_line;
    const char* expect_detail;
  };
  const Case corpus[] = {
      // Truncated file: endmodule never arrives.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y, a);\n",
       "verilog line 4", "truncated module"},
      // Truncated mid-instance.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y,\n",
       "verilog line 4", "truncated module"},
      // Missing semicolon after a declaration.
      {"module m(a, y);\n  input a\n  output y;\nendmodule\n",
       "verilog line 3", "expected ',' or ';'"},
      // Missing semicolon after an instance.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y, a)\nendmodule\n",
       "verilog line 5", "expected ';'"},
      // Unknown primitive.
      {"module m(a, y);\n  input a;\n  output y;\n  xor u0(y, a);\nendmodule\n",
       "verilog line 4", "unknown primitive or directive 'xor'"},
      // Undeclared fanin signal.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y, ghost);\n"
       "endmodule\n",
       "verilog line 4", "undeclared signal 'ghost'"},
      // Undeclared instance output.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(w, a);\n"
       "  buf u1(y, a);\nendmodule\n",
       "verilog line 4", "undeclared signal 'w'"},
      // Duplicate gate (driver) name.
      {"module m(a, y);\n  input a;\n  output y;\n  wire w;\n"
       "  buf u0(w, a);\n  not u1(w, a);\n  buf u2(y, w);\nendmodule\n",
       "verilog line 6", "duplicate driver for 'w'"},
      // Duplicate declaration.
      {"module m(a, y);\n  input a;\n  input a;\n  output y;\n"
       "  buf u0(y, a);\nendmodule\n",
       "verilog line 3", "duplicate declaration of 'a'"},
      // Driving an input port.
      {"module m(a, y);\n  input a;\n  output y;\n  not u0(a, y);\n"
       "  buf u1(y, a);\nendmodule\n",
       "verilog line 4", "instance drives input 'a'"},
      // Dangling fanin: declared wire with no driver.
      {"module m(a, y);\n  input a;\n  output y;\n  wire w;\n"
       "  not u0(y, w);\nendmodule\n",
       "verilog line 5", "dangling fanin: 'w' is never driven"},
      // Output never driven.
      {"module m(a, y);\n  input a;\n  output y;\nendmodule\n",
       "verilog line 3", "output 'y' is never driven"},
      // Combinational cycle.
      {"module m(a, y);\n  input a;\n  output y;\n  wire p, q;\n"
       "  not u0(p, q);\n  not u1(q, p);\n  buf u2(y, p);\nendmodule\n",
       "verilog line 6", "combinational cycle"},
      // Port that is never declared input or output.
      {"module m(a, y, mystery);\n  input a;\n  output y;\n"
       "  buf u0(y, a);\nendmodule\n",
       "verilog line 1", "port 'mystery' is not declared input or output"},
      // Content after endmodule.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y, a);\n"
       "endmodule\nstray\n",
       "verilog line 6", "content after endmodule"},
      // Unterminated block comment.
      {"module m(a, y);\n  input a;\n  /* runs off the end\n",
       "verilog line 3", "unterminated block comment"},
      // Arity: not/buf are strictly unary.
      {"module m(a, b, y);\n  input a, b;\n  output y;\n"
       "  not u0(y, a, b);\nendmodule\n",
       "verilog line 4", "not takes exactly one fanin, got 2"},
      // Instance with an output but no fanins.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y);\nendmodule\n",
       "verilog line 4", "needs an output and at least one fanin"},
      // Doesn't even start with 'module'.
      {"input a;\n", "verilog line 1", "expected 'module'"},
      // Unexpected character.
      {"module m(a, y);\n  input a;\n  output y;\n  buf u0(y, a) @;\n"
       "endmodule\n",
       "verilog line 4", "unexpected character '@'"},
  };
  for (const Case& entry : corpus) {
    try {
      read_verilog_string(entry.text);
      FAIL() << "expected parse failure for:\n" << entry.text;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(entry.expect_line), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_line << "'";
      EXPECT_NE(message.find(entry.expect_detail), std::string::npos)
          << "message '" << message << "' lacks '" << entry.expect_detail
          << "'";
    }
  }
}

}  // namespace
}  // namespace rd
