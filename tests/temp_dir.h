// A scratch directory private to one test process.
//
// ctest runs a test binary's plain build and its sanitizer builds (the
// asan_ubsan and tsan_determinism gates) at the same time, so tests that
// write files under fixed /tmp names overwrite each other's inputs. Every
// test that needs a file asks temp_path() instead: the directory comes
// from mkdtemp under $TMPDIR (default /tmp) and is removed at exit.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace fullweb::test_support {

class TempDir {
 public:
  TempDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                        "/fullweb_test_XXXXXX";
    if (mkdtemp(templ.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + templ);
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// `name` inside this process's scratch directory (created on first use).
inline std::string temp_path(const std::string& name) {
  static const TempDir dir;
  return (dir.path() / name).string();
}

}  // namespace fullweb::test_support
