// Tiny command-line flag parser for the CLI, example and benchmark
// binaries. Supports --name=value and --name value forms plus positional
// arguments. Parse itself accepts anything; binaries with a fixed flag
// vocabulary (bepi_cli) pass a schema to Validate afterwards so a typo
// like --seednode=3 fails fast naming the flag instead of being silently
// ignored.
#ifndef BEPI_COMMON_FLAGS_HPP_
#define BEPI_COMMON_FLAGS_HPP_

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace bepi {

/// Value shape a flag accepts, checked by Flags::Validate. kInt is any
/// base-10 integer that fits in 64 bits; kInt32 one that also fits in 32,
/// for flags the program keeps in an `int` (thread, slot and connection
/// counts). A value out of its range is rejected, never truncated.
enum class FlagType { kBool, kInt, kInt32, kDouble, kString };

struct FlagSpec {
  std::string name;  // without the leading "--"
  FlagType type = FlagType::kString;
};

class Flags {
 public:
  /// Parses argv. Unrecognized tokens that do not start with "--" become
  /// positional arguments.
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  index_t GetInt(const std::string& name, index_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Checks every parsed flag against the schema: a flag absent from
  /// `specs` fails with InvalidArgument naming it, as does a value that
  /// does not parse as the declared type in full ("--topk=5x" is an error,
  /// not 5). Callers exit non-zero on failure; flags the schema knows but
  /// argv omits are fine. Positional arguments are not checked.
  Status Validate(const std::vector<FlagSpec>& specs) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bepi

#endif  // BEPI_COMMON_FLAGS_HPP_
