/**
 * @file
 * Finite-field Diffie-Hellman key agreement for the VeilMon secure user
 * channel (§5.1): the remote user and VeilMon exchange public keys via
 * the attestation report's report-data field, derive a shared secret,
 * and expand it into AES + HMAC session keys.
 *
 * Simulation-strength parameters: the group modulus is the 256-bit
 * secp256k1 field prime with generator 5 (field.hh). Swap in an
 * RFC 3526 group in a production port.
 */
#ifndef VEIL_CRYPTO_DH_HH_
#define VEIL_CRYPTO_DH_HH_

#include "crypto/drbg.hh"
#include "crypto/field.hh"

namespace veil::crypto {

/**
 * Sample a private exponent 2 <= x < p-1: 32-byte big-endian DRBG
 * draws, rejecting out-of-range values. Shared by DH and Schnorr keys
 * and the Schnorr nonce.
 */
U256 sampleExponent(HmacDrbg &drbg);

/**
 * Parse a peer's big-endian group element, accepting only the live
 * range 2 <= v <= p-2: 0 and 1 are degenerate, p-1 has order 2, and
 * p and above are out of range.
 */
std::optional<U256> parseGroupElement(const Bytes &be);

/** One party's DH key pair. */
struct DhKeyPair
{
    U256 secret;     ///< private exponent (256 bits)
    Bytes publicKey; ///< g^secret mod p, big-endian, 32 bytes
};

/** Derived symmetric session keys. */
struct SessionKeys
{
    std::array<uint8_t, 16> encKey; ///< AES-128 key
    std::array<uint8_t, 32> macKey; ///< HMAC-SHA256 key
};

/** Generate a key pair from DRBG output. */
DhKeyPair dhGenerate(HmacDrbg &drbg);

/** Compute the 32-byte shared secret from our secret and their public. */
Bytes dhSharedSecret(const U256 &secret, const Bytes &their_public);

/** HKDF-like expansion of the shared secret into session keys. */
SessionKeys deriveSessionKeys(const Bytes &shared_secret);

} // namespace veil::crypto

#endif // VEIL_CRYPTO_DH_HH_
