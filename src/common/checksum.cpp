#include "common/checksum.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace bepi {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;

/// The 8 slice tables. Table 0 is the classic byte-at-a-time table for the
/// reflected Castagnoli polynomial; table t gives the CRC contribution of a
/// byte t positions deeper into the 8-byte word.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  constexpr Crc32cTables() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = (crc >> 8) ^ t[0][crc & 0xFFu];
        t[slice][i] = crc;
      }
    }
  }
};

constexpr Crc32cTables kTables{};

// Stream lengths of the interleaved hardware loop: three streams of kLong
// bytes while that much is left, then three of kShort.
constexpr std::size_t kLong = 8192;
constexpr std::size_t kShort = 256;

/// A 32x32 GF(2) matrix (one column per word) applied to a vector.
constexpr std::uint32_t Gf2Times(const std::array<std::uint32_t, 32>& mat,
                                 std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

constexpr std::array<std::uint32_t, 32> Gf2Square(
    const std::array<std::uint32_t, 32>& mat) {
  std::array<std::uint32_t, 32> square{};
  for (std::size_t n = 0; n < 32; ++n) square[n] = Gf2Times(mat, mat[n]);
  return square;
}

/// Tables applying the operator that feeds `len` zero bytes through the
/// CRC register, one per register byte: Shift(tables, crc) is the register
/// after `len` zeros. CRC(A || B) = Shift_|B|(CRC(A)) ^ CRC_0(B), which is
/// how the three streams are stitched back together.
struct ShiftTables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  constexpr explicit ShiftTables(std::size_t len) : t{} {
    // The operator for one zero bit, then squared up to `len` bytes.
    std::array<std::uint32_t, 32> odd{};
    odd[0] = kPoly;
    std::uint32_t row = 1;
    for (std::size_t n = 1; n < 32; ++n, row <<= 1) odd[n] = row;
    std::array<std::uint32_t, 32> even = Gf2Square(odd);  // 2 zero bits
    odd = Gf2Square(even);                                // 4 zero bits
    std::array<std::uint32_t, 32> op{};
    for (;;) {
      even = Gf2Square(odd);  // 8, 32, ... zero bits: one more byte power
      len >>= 1;
      if (len == 0) {
        op = even;
        break;
      }
      odd = Gf2Square(even);
      len >>= 1;
      if (len == 0) {
        op = odd;
        break;
      }
    }
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[0][n] = Gf2Times(op, n);
      t[1][n] = Gf2Times(op, n << 8);
      t[2][n] = Gf2Times(op, n << 16);
      t[3][n] = Gf2Times(op, n << 24);
    }
  }

  std::uint32_t Shift(std::uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

#if defined(__x86_64__)

const ShiftTables& LongShift() {
  static const ShiftTables tables(kLong);
  return tables;
}

const ShiftTables& ShortShift() {
  static const ShiftTables tables(kShort);
  return tables;
}

__attribute__((target("sse4.2"))) inline std::uint64_t Load64(
    const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Three streams of `len` bytes starting at p, p + len and p + 2 len, the
/// first continuing `crc`; returns the register after all 3 len bytes.
__attribute__((target("sse4.2"))) std::uint32_t Interleaved(
    std::uint32_t crc, const unsigned char* p, std::size_t len,
    const ShiftTables& shift) {
  std::uint64_t c0 = crc, c1 = 0, c2 = 0;
  for (const unsigned char* end = p + len; p < end; p += 8) {
    c0 = _mm_crc32_u64(c0, Load64(p));
    c1 = _mm_crc32_u64(c1, Load64(p + len));
    c2 = _mm_crc32_u64(c2, Load64(p + 2 * len));
  }
  std::uint32_t out = shift.Shift(static_cast<std::uint32_t>(c0)) ^
                      static_cast<std::uint32_t>(c1);
  return shift.Shift(out) ^ static_cast<std::uint32_t>(c2);
}

__attribute__((target("sse4.2"))) std::uint32_t HardwareUpdate(
    std::uint32_t crc, const unsigned char* p, std::size_t length) {
  // Byte steps until p is 8-byte aligned, so the word loads are.
  while (length > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --length;
  }
  const ShiftTables& long_shift = LongShift();
  while (length >= 3 * kLong) {
    crc = Interleaved(crc, p, kLong, long_shift);
    p += 3 * kLong;
    length -= 3 * kLong;
  }
  const ShiftTables& short_shift = ShortShift();
  while (length >= 3 * kShort) {
    crc = Interleaved(crc, p, kShort, short_shift);
    p += 3 * kShort;
    length -= 3 * kShort;
  }
  std::uint64_t c = crc;
  while (length >= 8) {
    c = _mm_crc32_u64(c, Load64(p));
    p += 8;
    length -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (length > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --length;
  }
  return crc;
}

#endif  // __x86_64__

bool DetectHardware() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

bool Crc32c::HardwareAvailable() {
  static const bool available = DetectHardware();
  return available;
}

std::uint32_t Crc32c::UpdateTable(std::uint32_t crc, const void* data,
                                  std::size_t length) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kTables.t;

  // Byte-at-a-time until 8-byte alignment (keeps the word loads aligned).
  while (length > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --length;
  }

  // Slice-by-8 main loop: one table lookup per byte, eight bytes per step.
  while (length >= 8) {
    // Assemble the two 32-bit halves byte-wise so the code is endianness-
    // independent (the tables encode little-endian byte order).
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][(lo >> 24) & 0xFFu] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][(hi >> 24) & 0xFFu];
    p += 8;
    length -= 8;
  }

  while (length > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
    --length;
  }
  return crc;
}

std::uint32_t Crc32c::UpdateHardware(std::uint32_t crc, const void* data,
                                     std::size_t length) {
#if defined(__x86_64__)
  return HardwareUpdate(crc, static_cast<const unsigned char*>(data), length);
#else
  return UpdateTable(crc, data, length);
#endif
}

void Crc32c::Update(const void* data, std::size_t length) {
  state_ = HardwareAvailable() ? UpdateHardware(state_, data, length)
                               : UpdateTable(state_, data, length);
}

std::uint32_t Crc32c::Compute(const void* data, std::size_t length) {
  Crc32c crc;
  crc.Update(data, length);
  return crc.Value();
}

}  // namespace bepi
