/**
 * @file
 * Fixed-width modular arithmetic for the DH/Schnorr group (dh.hh,
 * sig.hh). Both moduli the asymmetric crypto needs are pseudo-Mersenne,
 * m = 2^256 - c with a small c: the group prime
 * p = 2^256 - 2^32 - 977 (the secp256k1 field prime) and p - 1, the
 * order of the Schnorr exponent ring. A value is four little-endian
 * 64-bit limbs. A product is a 512-bit schoolbook multiply whose high
 * half is folded back in as hi * c, since 2^256 = c (mod m).
 * Exponentiation uses a fixed 4-bit window; powers of the group
 * generator come from a precomputed table. Not constant-time
 * (simulation-strength).
 */
#ifndef VEIL_CRYPTO_FIELD_HH_
#define VEIL_CRYPTO_FIELD_HH_

#include <array>
#include <cstdint>
#include <optional>

#include "base/bytes.hh"

namespace veil::crypto {

/** 256-bit unsigned integer: four little-endian 64-bit limbs. */
struct U256
{
    std::array<uint64_t, 4> w{};

    /** Parse big-endian bytes of any length; nullopt if >= 2^256. */
    static std::optional<U256> fromBytes(const uint8_t *be, size_t len);
    static std::optional<U256>
    fromBytes(const Bytes &be)
    {
        return fromBytes(be.data(), be.size());
    }

    /** 32 big-endian bytes. */
    Bytes toBytes() const;

    bool operator==(const U256 &o) const = default;
    bool operator<(const U256 &o) const;
};

constexpr U256
u256(uint64_t v)
{
    return U256{{v, 0, 0, 0}};
}

/** Arithmetic modulo m = 2^256 - c, for any 0 < c < 2^64. */
class PmRing
{
  public:
    constexpr explicit PmRing(uint64_t c) : c_(c) {}

    U256 modulus() const;

    /** a mod m (one conditional subtraction: 2m > 2^256). */
    U256 reduce(const U256 &a) const;

    /** (a + b) mod m for reduced @p a and @p b. */
    U256 add(const U256 &a, const U256 &b) const;

    /** (a * b) mod m for any 256-bit @p a and @p b. */
    U256 mul(const U256 &a, const U256 &b) const;

    /** base^exp mod m (fixed 4-bit window; exp = 0 gives 1). */
    U256 pow(const U256 &base, const U256 &exp) const;

  private:
    uint64_t c_;
};

/** c of the group prime: p = 2^256 - 2^32 - 977. */
constexpr uint64_t kGroupPrimeC = 0x1000003d1;

/** Z_p, the DH/Schnorr group's field. */
inline constexpr PmRing kGroupField{kGroupPrimeC};

/** Z_{p-1}, the Schnorr exponent ring (p - 1 = 2^256 - (c + 1)). */
inline constexpr PmRing kExponentRing{kGroupPrimeC + 1};

/** Group generator. */
constexpr uint32_t kGroupGenerator = 5;

/** kGroupGenerator^e mod p, from a fixed-base table built on first use. */
U256 generatorPow(const U256 &e);

} // namespace veil::crypto

#endif // VEIL_CRYPTO_FIELD_HH_
