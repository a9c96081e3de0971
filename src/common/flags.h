#ifndef TCROWD_COMMON_FLAGS_H_
#define TCROWD_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcrowd {

/// Minimal command-line flag parser for the CLI tools.
///
/// Accepted syntax: `--name=value`, `--name value`, and bare `--name`
/// (boolean true). Everything that does not start with `--` is collected as
/// a positional argument. `--` ends flag parsing.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Fails on a malformed flag token.
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults. Getting a flag that is present but not
  /// parseable as the requested type returns the fallback and records the
  /// problem (retrievable via first_error()).
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& name, int64_t fallback = 0) const;
  double GetDouble(const std::string& name, double fallback = 0.0) const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tcrowd

#endif  // TCROWD_COMMON_FLAGS_H_
