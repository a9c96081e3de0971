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

const std::string* FlagParser::Find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  read_.insert(name);
  return &it->second;
}

void FlagParser::NoteBadValue(const std::string& name,
                              const std::string& value,
                              const char* type) const {
  bad_values_.push_back("--" + name + "=" + value + " is not " + type);
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* value = Find(name);
  return value != nullptr ? *value : fallback;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  auto parsed = ParseInt(*value);
  if (parsed.ok()) return *parsed;
  NoteBadValue(name, *value, "an integer");
  return fallback;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  auto parsed = ParseDouble(*value);
  if (parsed.ok()) return *parsed;
  NoteBadValue(name, *value, "a number");
  return fallback;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  NoteBadValue(name, v, "a boolean");
  return fallback;
}

Status FlagParser::Validate() const {
  std::vector<std::string> problems = bad_values_;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) {
      problems.push_back("unknown or unused flag --" + name);
    }
  }
  if (problems.empty()) return Status::Ok();
  std::string message = problems[0];
  for (size_t i = 1; i < problems.size(); ++i) message += "; " + problems[i];
  return Status::InvalidArgument(message);
}

}  // namespace tcrowd
