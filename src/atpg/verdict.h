// Verdict of a complete path-delay test search (atpg/robust.h,
// atpg/nonrobust.h): kTestable carries a test, kRedundant is a
// completed untestability proof, kAborted means the node budget ran
// out or the execution guard tripped.
#pragma once

#include <cstdint>

namespace rd {

enum class AtpgVerdict : std::uint8_t { kTestable, kRedundant, kAborted };

}  // namespace rd
