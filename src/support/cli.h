// Minimal command-line flag parsing for examples and bench drivers.
//
// Supports `--name value`, `--name=value`, and boolean `--name`. Unknown
// flags are an error so typos surface immediately.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fullweb::support {

class CliFlags {
 public:
  /// Declare a flag with a default value and help text. Call before parse().
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parse argv. Returns false (and prints usage to stderr) on unknown flags
  /// or missing values, and (printing the error) on a non-numeric value for
  /// a flag whose declared default is a number. `--help` prints usage and
  /// returns false as well.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void print_usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fullweb::support
