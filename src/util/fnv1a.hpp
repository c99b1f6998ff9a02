#pragma once

#include <cstdint>

/// \file fnv1a.hpp
/// 64-bit FNV-1a over a sequence of 64-bit values, each fed least
/// significant byte first: the digest golden tests and
/// bench/admit_replay pin a whole replay's outcomes by.  Not
/// cryptographic; a golden digest only has to change when any value does.

namespace wormrt::util {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace wormrt::util
