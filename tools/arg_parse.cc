#include "arg_parse.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace gass::tools {

bool ParseLong(const std::string& text, long* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseIntList(const std::string& text, std::vector<long>* out) {
  std::vector<long> values;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(',', start);
    long value = 0;
    if (!ParseLong(text.substr(start, end - start), &value)) return false;
    values.push_back(value);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  *out = std::move(values);
  return true;
}

ArgParser::ArgParser(int argc, char* const* argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      error_ = std::string("expected --flag, got '") + argv[i] + "'";
      return;
    }
    values_[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) {
    error_ = std::string("flag '") + argv[argc - 1] + "' is missing a value";
  }
}

bool ArgParser::Restrict(const std::vector<ArgSpec>& specs) {
  if (!ok()) return false;
  for (const auto& [key, value] : values_) {
    const ArgSpec* spec = nullptr;
    for (const ArgSpec& candidate : specs) {
      if (key == candidate.name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      error_ = "unknown flag --" + key;
      return false;
    }
    if (spec->kind == ArgKind::kInt) {
      long parsed = 0;
      if (!ParseLong(value, &parsed)) {
        error_ = "flag --" + key + " expects an integer, got '" + value + "'";
        return false;
      }
    } else if (spec->kind == ArgKind::kFloat) {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        error_ = "flag --" + key + " expects a number, got '" + value + "'";
        return false;
      }
    } else if (spec->kind == ArgKind::kIntList) {
      std::vector<long> parsed;
      if (!ParseIntList(value, &parsed)) {
        error_ = "flag --" + key +
                 " expects comma-separated integers, got '" + value + "'";
        return false;
      }
    }
  }
  return true;
}

long ArgParser::GetInt(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  long parsed = 0;
  return ParseLong(it->second, &parsed) ? parsed : fallback;
}

double ArgParser::GetFloat(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double parsed = 0.0;
  return ParseDouble(it->second, &parsed) ? parsed : fallback;
}

std::vector<long> ArgParser::GetIntList(
    const std::string& key, const std::vector<long>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<long> parsed;
  return ParseIntList(it->second, &parsed) ? parsed : fallback;
}

}  // namespace gass::tools
