// Crafted-checkpoint helpers for the decoder tests: edit one line of a
// checkpoint's body and seal it again with a valid digest, so the edit
// reaches the decoder instead of the digest check.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/checkpoint.hpp"

namespace lgg::resilience {

/// One crafted edit: on the first body line whose keyword is `keyword`,
/// the tokens from index `from` (the keyword is token 0) to the end of the
/// line become `tail`.
struct CraftedLine {
  std::string_view keyword;
  std::size_t from;
  std::string_view tail;
};

/// `sealed` (an encoded checkpoint) with `edit` applied, sealed again.
inline std::string resealed(const std::string& sealed,
                            const CraftedLine& edit) {
  std::istringstream lines(sealed);
  std::string body;
  bool edited = false;
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> toks;
    std::istringstream is(line);
    for (std::string t; is >> t;) toks.push_back(t);
    if (toks.at(0) == "digest") break;
    if (!edited && toks[0] == edit.keyword) {
      EXPECT_LE(edit.from, toks.size()) << "line too short: " << line;
      line.clear();
      for (std::size_t i = 0; i < edit.from && i < toks.size(); ++i)
        line += toks[i] + " ";
      line += edit.tail;
      edited = true;
    }
    body += line + "\n";
  }
  EXPECT_TRUE(edited) << "no line starts with " << edit.keyword;
  return seal_checkpoint(std::move(body));
}

/// Every crafted edit of `sealed` must make `decode` throw
/// CheckpointError(kCorrupt), never another exception.
template <class Decode>
void expect_all_corrupt(const std::string& sealed,
                        std::initializer_list<CraftedLine> edits,
                        const Decode& decode) {
  for (const CraftedLine& edit : edits) {
    const std::string what = std::string(edit.keyword) + " [" +
                             std::to_string(edit.from) + ":] = " +
                             std::string(edit.tail);
    try {
      (void)decode(resealed(sealed, edit));
      ADD_FAILURE() << "accepted: " << what;
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::kCorrupt)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  }
}

}  // namespace lgg::resilience
