#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"

// Replays every committed reproducer in tests/fuzz_corpus/ through all
// four oracles.  A corpus file is a bug that was found (or a stress
// scenario worth pinning); once fixed it must stay fixed, so the
// expected verdict here is always "clean".

namespace wormrt::fuzz {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(WORMRT_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplay, CommittedReproducersStayClean) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no *.corpus files under "
                              << WORMRT_FUZZ_CORPUS_DIR;
  for (const std::string& file : files) {
    const auto violation = replay_corpus_file(file, CheckConfig{});
    EXPECT_FALSE(violation.has_value())
        << file << ": " << violation->invariant << ": " << violation->detail;
  }
}

TEST(CorpusReplay, SocketProtocolStaysClean) {
  // The smallest corpus file again, over a real loopback socket.
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  CheckConfig config;
  config.protocol_over_socket = true;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  const auto violation = replay_corpus_file(files.front(), config);
  EXPECT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
}

}  // namespace
}  // namespace wormrt::fuzz
