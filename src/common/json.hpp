// JSON string literals for every JSON the program writes: serve
// responses, trace and flight-recorder exports, metrics snapshots.
#ifndef BEPI_COMMON_JSON_HPP_
#define BEPI_COMMON_JSON_HPP_

#include <string>
#include <string_view>

namespace bepi {

/// Serializes `s` as a JSON string literal, quotes included: `"` and `\`
/// are escaped, control characters get their short escape (\b \f \n \r
/// \t) or \u00XX.
std::string JsonQuote(std::string_view s);

}  // namespace bepi

#endif  // BEPI_COMMON_JSON_HPP_
