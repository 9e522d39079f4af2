// Strict --flag value argument parsing for the CLI tools.
//
// Extracted from gass_cli so the parsing contract is unit-testable: flags
// come in "--name value" pairs in any order, and *every* malformed input
// produces a named error instead of a silent default —
//
//   * a positional token where a --flag was expected,
//   * a trailing flag with no value,
//   * a flag not in the command's spec table (typos never pass silently),
//   * a non-numeric value handed to an integer or float flag, or an
//     empty or non-numeric element in an integer-list flag.
//
// Usage: construct, then call Restrict() with the command's ArgSpec table.
// Restrict validates flag names and numeric syntax eagerly, so the typed
// getters afterwards cannot fail. Check ok() / error() after both steps.

#ifndef GASS_TOOLS_ARG_PARSE_H_
#define GASS_TOOLS_ARG_PARSE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace gass::tools {

/// How a flag's value is validated by ArgParser::Restrict.
enum class ArgKind {
  kString,   ///< Any value (paths, method names, key=value specs).
  kInt,      ///< A complete decimal integer, optionally signed.
  kFloat,    ///< A complete decimal floating-point number.
  kIntList,  ///< Comma-separated kInt values ("1,2,4"), none empty.
};

/// One known flag: its name without the "--" prefix, and its value kind.
struct ArgSpec {
  const char* name;
  ArgKind kind;
};

/// Strict "the whole string is a decimal integer" parse; returns false on
/// empty input, trailing garbage, or out-of-range values.
bool ParseLong(const std::string& text, long* out);

/// Strict "the whole string is a decimal floating-point number" parse.
bool ParseDouble(const std::string& text, double* out);

/// Strict comma-list parse: every element must pass ParseLong, so empty
/// input, an empty element (",1", "1,,2", "1,") or a malformed one fails.
bool ParseIntList(const std::string& text, std::vector<long>* out);

class ArgParser {
 public:
  /// Parses "--flag value" pairs from argv[first..argc). Structural errors
  /// (positional token, dangling flag) are recorded; check ok().
  ArgParser(int argc, char* const* argv, int first);

  /// Validates every parsed flag against `specs`: an unknown flag or a
  /// malformed numeric value records a named error. Returns ok().
  bool Restrict(const std::vector<ArgSpec>& specs);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Integer flag lookup. After a successful Restrict the value is known
  /// to parse; without one, a malformed value falls back (no named error).
  long GetInt(const std::string& key, long fallback) const;

  /// Float flag lookup, same contract as GetInt.
  double GetFloat(const std::string& key, double fallback) const;

  /// Integer-list flag lookup, same contract as GetInt.
  std::vector<long> GetIntList(const std::string& key,
                               const std::vector<long>& fallback) const;

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

}  // namespace gass::tools

#endif  // GASS_TOOLS_ARG_PARSE_H_
