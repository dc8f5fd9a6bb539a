#include "support/cli.h"

#include <cstdio>
#include <stdexcept>

#include "support/strings.h"

namespace fullweb::support {

void CliFlags::define(const std::string& name, const std::string& default_value,
                      const std::string& help) {
  flags_[name] = Flag{default_value, default_value, help};
}

bool CliFlags::parse(int argc, const char* const* argv) {
  const std::string program = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg == "help") {
      print_usage(program);
      return false;
    }
    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      print_usage(program);
      return false;
    }
    if (!have_value) {
      // Boolean default: a bare `--flag` means "true" when the declared
      // default parses as a boolean; otherwise consume the next argument.
      const std::string& def = it->second.default_value;
      if (def == "true" || def == "false") {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    // A flag declared with a numeric default takes only numbers, so a typo
    // such as `--threads abc` is reported here instead of escaping
    // get_int()/get_double() later as an uncaught exception.
    if (parse_double(it->second.default_value) && !parse_double(value)) {
      std::fprintf(stderr, "flag --%s expects a number, got '%s'\n",
                   name.c_str(), value.c_str());
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string CliFlags::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) throw std::invalid_argument("undeclared flag: " + name);
  return it->second.value;
}

long long CliFlags::get_int(const std::string& name) const {
  auto v = parse_int(get(name));
  if (!v) throw std::invalid_argument("flag --" + name + " is not an integer");
  return *v;
}

double CliFlags::get_double(const std::string& name) const {
  auto v = parse_double(get(name));
  if (!v) throw std::invalid_argument("flag --" + name + " is not a number");
  return *v;
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = to_lower(get(name));
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

void CliFlags::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_value.c_str());
  }
}

}  // namespace fullweb::support
