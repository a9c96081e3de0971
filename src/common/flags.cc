#include "common/flags.h"

#include <utility>

#include "common/string_util.h"

namespace tcrowd {

Status FlagParser::Parse(int argc, const char* const* argv) {
  bool flags_done = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (flags_done || !StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("empty flag name in '" + arg + "'");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token exists and is not itself a flag;
    // otherwise a bare boolean.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = flags_.find(name);
  return it != flags_.end() ? it->second : fallback;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  auto parsed = ParseInt(it->second);
  return parsed.ok() ? *parsed : fallback;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  auto parsed = ParseDouble(it->second);
  return parsed.ok() ? *parsed : fallback;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return fallback;
}

}  // namespace tcrowd
