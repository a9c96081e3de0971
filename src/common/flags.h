#ifndef TCROWD_COMMON_FLAGS_H_
#define TCROWD_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace tcrowd {

/// Minimal command-line flag parser for the CLI tools.
///
/// Accepted syntax: `--name=value`, `--name value`, and bare `--name`
/// (boolean true). Everything that does not start with `--` is collected as
/// a positional argument. `--` ends flag parsing.
///
/// The parser remembers which flags were read and which values did not
/// parse; a tool calls Validate() once it has read every flag it accepts,
/// so a mistyped, retired or malformed flag fails the run instead of being
/// silently ignored.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Fails on a malformed flag token.
  Status Parse(int argc, const char* const* argv);

  /// Presence test; counts as reading the flag.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults. Getting a flag that is present but not
  /// parseable as the requested type returns the fallback and records the
  /// problem for Validate().
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& name, int64_t fallback = 0) const;
  double GetDouble(const std::string& name, double fallback = 0.0) const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming every flag that no Has()/Get*() call has read
  /// and every value a getter could not parse; OK otherwise.
  Status Validate() const;

 private:
  /// The flag's value, or null when absent; marks the flag read.
  const std::string* Find(const std::string& name) const;
  void NoteBadValue(const std::string& name, const std::string& value,
                    const char* type) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
  mutable std::vector<std::string> bad_values_;
};

}  // namespace tcrowd

#endif  // TCROWD_COMMON_FLAGS_H_
