// Minimal command-line flag parser for the examples and benchmark drivers.
//
// Supports --name=value, --name value, and bare --flag booleans. Flags no
// caller asks for are ignored silently; a misspelled flag *name* therefore
// runs with the default, while a misspelled *value* read through GetChoice,
// GetInt or GetDouble fails with ParhdeError(kUsage).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace parhde {

class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool Has(const std::string& name) const;

  /// String value of --name, or `def` if absent.
  [[nodiscard]] std::string GetString(const std::string& name,
                                      const std::string& def) const;

  /// Integer value of --name, or `def` if absent or empty. A non-empty
  /// unparsable value throws ParhdeError(kUsage) — a typo'd number should
  /// fail loudly, not silently fall back to a default.
  [[nodiscard]] std::int64_t GetInt(const std::string& name,
                                    std::int64_t def) const;

  /// Double value of --name, or `def` if absent or empty; throws
  /// ParhdeError(kUsage) on a non-empty unparsable value.
  [[nodiscard]] double GetDouble(const std::string& name, double def) const;

  /// Value of --name constrained to `allowed`; returns `def` when the flag
  /// is absent and throws ParhdeError(kUsage) (listing the choices) when
  /// a value outside `allowed` was given — typos should fail loudly rather
  /// than silently fall back to a default kernel or strategy.
  [[nodiscard]] std::string GetChoice(const std::string& name,
                                      const std::vector<std::string>& allowed,
                                      const std::string& def) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& Positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace parhde
