// Uniquely named temporary files and directories under the system temp
// directory, removed on destruction.  Names come from mkstemp / mkdtemp,
// so two live paths never collide — not within a process, and not across
// the processes `ctest -j` or concurrent build trees run at once.
#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace lgg::util {

class TempPath {
 public:
  /// A new empty file <tmp>/<stem>-XXXXXX.  Throws lgg::Error on failure.
  [[nodiscard]] static TempPath file(std::string_view stem = "lgg");
  /// A new empty directory <tmp>/<stem>-XXXXXX (callers name files inside
  /// it that must not exist yet).  Throws lgg::Error on failure.
  [[nodiscard]] static TempPath dir(std::string_view stem = "lgg");

  /// Removes the file, or the directory with everything in it.
  ~TempPath();
  TempPath(TempPath&& other) noexcept;
  TempPath& operator=(TempPath&&) = delete;
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  explicit TempPath(std::string path) noexcept : path_(std::move(path)) {}

  std::string path_;  // empty once moved from
};

}  // namespace lgg::util
