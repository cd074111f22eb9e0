#include "common/flags.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace bepi {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";  // bare boolean flag
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

index_t Flags::GetInt(const std::string& name, index_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return static_cast<index_t>(std::strtoll(it->second.c_str(), nullptr, 10));
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

namespace {

bool ParsesAs(FlagType type, const std::string& value) {
  switch (type) {
    case FlagType::kString:
      return true;
    case FlagType::kBool:
      return value == "true" || value == "false" || value == "1" ||
             value == "0" || value == "yes" || value == "no" ||
             value == "on" || value == "off";
    case FlagType::kInt:
    case FlagType::kInt32: {
      if (value.empty()) return false;
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (end != value.c_str() + value.size() || errno == ERANGE) {
        return false;
      }
      return type == FlagType::kInt ||
             (v >= std::numeric_limits<std::int32_t>::min() &&
              v <= std::numeric_limits<std::int32_t>::max());
    }
    case FlagType::kDouble: {
      if (value.empty()) return false;
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      return end == value.c_str() + value.size();
    }
  }
  return false;
}

const char* TypeName(FlagType type) {
  switch (type) {
    case FlagType::kBool:
      return "boolean";
    case FlagType::kInt:
      return "64-bit integer";
    case FlagType::kInt32:
      return "32-bit integer";
    case FlagType::kDouble:
      return "number";
    case FlagType::kString:
      return "string";
  }
  return "value";
}

}  // namespace

Status Flags::Validate(const std::vector<FlagSpec>& specs) const {
  for (const auto& [name, value] : values_) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs) {
      if (s.name == name) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!ParsesAs(spec->type, value)) {
      return Status::InvalidArgument("flag --" + name + " expects a " +
                                     TypeName(spec->type) + " value, got '" +
                                     value + "'");
    }
  }
  return Status::Ok();
}

}  // namespace bepi
