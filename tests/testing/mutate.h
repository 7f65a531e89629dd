#ifndef TDMATCH_TESTS_TESTING_MUTATE_H_
#define TDMATCH_TESTS_TESTING_MUTATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tdmatch {
namespace testutil {

/// Where a mutator may cut an input: the first `frozen` bytes (a format
/// header) only ever see bit flips, and `length_fields` are the offsets of
/// little-endian u32 length or count fields worth inflating.
struct MutationLayout {
  size_t frozen = 0;
  std::vector<size_t> length_fields;
};

/// One mutant of `input` for parser fuzz tests, drawn from `rng` alone so
/// a fixed seed replays the same mutants. It is one of:
///   - 1-3 bit flips anywhere;
///   - a truncation after the frozen prefix;
///   - an inflated length field (v + 1, v + a little, the bytes left,
///     0x7fffffff, 0xffffffff or random), only when the layout names any;
///   - a splice: a chunk of up to 48 bytes copied over, or inserted at,
///     another place after the frozen prefix.
std::string Mutate(const std::string& input, const MutationLayout& layout,
                   util::Rng* rng);

}  // namespace testutil
}  // namespace tdmatch

#endif  // TDMATCH_TESTS_TESTING_MUTATE_H_
