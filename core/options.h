// key=value options plumbing for the per-algorithm options structs
// (ApproxDpcOptions, LshDdpOptions, ...). One OptionsMap flows from
// `dpc_cli --opt k=v` (or any config source) through
// MakeAlgorithmByName(name, options) into the concrete struct's
// FromOptions(), which consumes recognized keys through an OptionsReader;
// unrecognized keys and malformed values fail with InvalidArgument so
// ablation scripts cannot silently misspell a knob.
#ifndef DPC_CORE_OPTIONS_H_
#define DPC_CORE_OPTIONS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"

namespace dpc {

using OptionsMap = std::map<std::string, std::string>;

/// Parses "key=value" strings (the CLI's --opt grammar). A missing '=' or
/// empty key is an error; a later duplicate overwrites an earlier one.
inline StatusOr<OptionsMap> ParseOptionList(
    const std::vector<std::string>& items) {
  OptionsMap map;
  for (const std::string& item : items) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("option '" + item +
                                     "' is not of the form key=value");
    }
    map[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return map;
}

/// Normalizes one option value to its canonical spelling: exact integers
/// re-render through int64 (so "08" becomes "8" without the double
/// rounding that would merge distinct values above 2^53 — OptionsReader
/// parses integer options exactly, so the canonical form must too),
/// other finite numbers through %.17g (so "0.50", "5e-1", and ".5" all
/// become "0.5"), boolean words collapse to "1"/"0" (mirroring
/// OptionsReader::Bool's vocabulary), and anything else — enum values
/// like "lpt", paths, names — is preserved byte-for-byte.
inline std::string CanonicalOptionValue(const std::string& value) {
  if (value == "true" || value == "on" || value == "yes") return "1";
  if (value == "false" || value == "off" || value == "no") return "0";
  char* end = nullptr;
  errno = 0;
  const long long as_int = std::strtoll(value.c_str(), &end, 10);
  if (!value.empty() && end == value.c_str() + value.size() &&
      errno != ERANGE) {
    return std::to_string(as_int);
  }
  end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (!value.empty() && end == value.c_str() + value.size() &&
      errno != ERANGE && std::isfinite(parsed)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", parsed);
    return buf;
  }
  return value;
}

/// The map with every value canonicalized (keys are already sorted — the
/// OptionsMap is a std::map), so semantically identical `--opt` spellings
/// compare and hash equal. Used by the serving layer's result-cache key.
inline OptionsMap CanonicalizeOptions(const OptionsMap& map) {
  OptionsMap out;
  for (const auto& [key, value] : map) out[key] = CanonicalOptionValue(value);
  return out;
}

/// "k1=v1,k2=v2" over the canonicalized map — a stable, hashable rendering
/// of the whole option set (empty string for an empty map).
inline std::string CanonicalOptionsString(const OptionsMap& map) {
  std::string out;
  for (const auto& [key, value] : map) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += CanonicalOptionValue(value);
  }
  return out;
}

/// Typed, consume-tracking view over an OptionsMap. Each getter parses
/// its key when present (recording the first parse error) and marks it
/// recognized; status() then also rejects keys nothing asked about.
class OptionsReader {
 public:
  explicit OptionsReader(const OptionsMap& map) : map_(map) {}

  OptionsReader& Bool(const std::string& key, bool* out) {
    if (const std::string* v = Consume(key)) {
      if (*v == "1" || *v == "true" || *v == "on" || *v == "yes") {
        *out = true;
      } else if (*v == "0" || *v == "false" || *v == "off" || *v == "no") {
        *out = false;
      } else {
        Fail(key, *v, "a boolean (true/false/1/0/on/off/yes/no)");
      }
    }
    return *this;
  }

  OptionsReader& Int(const std::string& key, int* out) {
    int64_t wide = 0;
    if (ParseInt64(key, &wide)) {
      if (wide < std::numeric_limits<int>::min() ||
          wide > std::numeric_limits<int>::max()) {
        Fail(key, std::to_string(wide), "an integer in int range");
      } else {
        *out = static_cast<int>(wide);
      }
    }
    return *this;
  }

  OptionsReader& Int64(const std::string& key, int64_t* out) {
    ParseInt64(key, out);
    return *this;
  }

  /// Verbatim string value; the caller validates the vocabulary (and
  /// should Fail-style reject with the accepted menu in its message).
  OptionsReader& String(const std::string& key, std::string* out) {
    if (const std::string* v = Consume(key)) *out = *v;
    return *this;
  }

  OptionsReader& Double(const std::string& key, double* out) {
    if (const std::string* v = Consume(key)) {
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(v->c_str(), &end);
      // Overflow ("1e999" -> inf) must fail, not silently saturate.
      if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE ||
          !std::isfinite(parsed)) {
        Fail(key, *v, "a finite number");
      } else {
        *out = parsed;
      }
    }
    return *this;
  }

  /// The first value error, else the first unrecognized key, else OK.
  Status status() const {
    if (!error_.ok()) return error_;
    for (const auto& [key, value] : map_) {
      (void)value;
      if (recognized_.count(key) == 0) {
        std::string menu;
        for (const std::string& known : recognized_) {
          if (!menu.empty()) menu += ", ";
          menu += known;
        }
        return Status::InvalidArgument(
            "unknown option '" + key + "'" +
            (menu.empty() ? "" : "; recognized: " + menu));
      }
    }
    return Status::Ok();
  }

 private:
  const std::string* Consume(const std::string& key) {
    recognized_.insert(key);
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool ParseInt64(const std::string& key, int64_t* out) {
    if (const std::string* v = Consume(key)) {
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(v->c_str(), &end, 10);
      // Saturation to INT64_MIN/MAX on overflow must fail, not pass.
      if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
        Fail(key, *v, "an integer in int64 range");
        return false;
      }
      *out = static_cast<int64_t>(parsed);
      return true;
    }
    return false;
  }

  void Fail(const std::string& key, const std::string& value,
            const std::string& expected) {
    if (error_.ok()) {
      error_ = Status::InvalidArgument("option '" + key + "': expected " +
                                       expected + ", got '" + value + "'");
    }
  }

  const OptionsMap& map_;
  std::set<std::string> recognized_;
  Status error_;
};

}  // namespace dpc

#endif  // DPC_CORE_OPTIONS_H_
