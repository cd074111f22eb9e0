// Streaming CRC32C (Castagnoli polynomial, reflected 0x82F63B78). Used to
// checksum model-file sections and preprocessing checkpoints so corruption
// is detected at load instead of parsed as garbage.
//
// Two implementations compute the same function. On x86-64 CPUs with
// SSE4.2 (detected at run time, no build flag needed) the `crc32`
// instruction runs over three interleaved streams whose CRCs are combined
// with precomputed GF(2) shift tables — zlib's crc32_combine method, as in
// Mark Adler's crc32c.c. Elsewhere the portable slice-by-8 table code runs.
#ifndef BEPI_COMMON_CHECKSUM_HPP_
#define BEPI_COMMON_CHECKSUM_HPP_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bepi {

/// Incremental CRC32C: feed bytes with Update(), read the digest with
/// Value() at any point (Value() does not consume state, so a running
/// checksum can be sampled mid-stream).
class Crc32c {
 public:
  void Update(const void* data, std::size_t length);
  void Update(std::string_view bytes) { Update(bytes.data(), bytes.size()); }

  /// Digest of everything fed so far (standard CRC32C final XOR applied).
  std::uint32_t Value() const { return state_ ^ 0xFFFFFFFFu; }

  void Reset() { state_ = 0xFFFFFFFFu; }

  /// One-shot convenience: CRC32C of a byte range.
  static std::uint32_t Compute(const void* data, std::size_t length);
  static std::uint32_t Compute(std::string_view bytes) {
    return Compute(bytes.data(), bytes.size());
  }

  /// Whether Update runs the SSE4.2 instruction path on this CPU.
  static bool HardwareAvailable();
  /// The two implementations of one Update step over the raw CRC
  /// register (initial 0xFFFFFFFF, no final XOR), exposed so tests can
  /// check they agree. UpdateHardware requires HardwareAvailable().
  static std::uint32_t UpdateTable(std::uint32_t state, const void* data,
                                   std::size_t length);
  static std::uint32_t UpdateHardware(std::uint32_t state, const void* data,
                                      std::size_t length);

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace bepi

#endif  // BEPI_COMMON_CHECKSUM_HPP_
