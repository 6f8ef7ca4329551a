#include "util/temp_path.hpp"

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <system_error>
#include <utility>

#include "util/error.hpp"

namespace lgg::util {
namespace {

/// <tmp>/<stem>-XXXXXX, the template mkstemp / mkdtemp fill in place.
std::string make_template(std::string_view stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "-XXXXXX"))
      .string();
}

}  // namespace

TempPath TempPath::file(std::string_view stem) {
  std::string name = make_template(stem);
  const int fd = ::mkstemp(name.data());
  LGG_CHECK(fd >= 0, "TempPath: mkstemp failed for " << name);
  ::close(fd);
  return TempPath(std::move(name));
}

TempPath TempPath::dir(std::string_view stem) {
  std::string name = make_template(stem);
  LGG_CHECK(::mkdtemp(name.data()) != nullptr,
            "TempPath: mkdtemp failed for " << name);
  return TempPath(std::move(name));
}

TempPath::~TempPath() {
  if (path_.empty()) return;
  std::error_code ec;  // best effort: a destructor must not throw
  std::filesystem::remove_all(path_, ec);
}

TempPath::TempPath(TempPath&& other) noexcept
    : path_(std::exchange(other.path_, {})) {}

}  // namespace lgg::util
