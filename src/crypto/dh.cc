#include "crypto/dh.hh"

#include "base/log.hh"
#include "crypto/hmac.hh"

namespace veil::crypto {

U256
sampleExponent(HmacDrbg &drbg)
{
    const U256 p_minus_1 = kExponentRing.modulus();
    for (;;) {
        U256 x = *U256::fromBytes(drbg.generate(32));
        if (!(x < u256(2)) && x < p_minus_1)
            return x;
    }
}

std::optional<U256>
parseGroupElement(const Bytes &be)
{
    std::optional<U256> v = U256::fromBytes(be);
    if (!v || *v < u256(2) || !(*v < kExponentRing.modulus()))
        return std::nullopt;
    return v;
}

DhKeyPair
dhGenerate(HmacDrbg &drbg)
{
    DhKeyPair kp;
    kp.secret = sampleExponent(drbg);
    kp.publicKey = generatorPow(kp.secret).toBytes();
    return kp;
}

Bytes
dhSharedSecret(const U256 &secret, const Bytes &their_public)
{
    // Reject degenerate peer publics, not just out-of-range ones: 0 and
    // 1 fix the shared secret at 0/1, and p-1 (order 2) forces it into
    // {1, p-1} — a small-subgroup attack where the untrusted relay
    // substitutes the public key and then knows the session keys.
    std::optional<U256> their = parseGroupElement(their_public);
    if (!their)
        fatal("dhSharedSecret: degenerate or out-of-range peer public key");
    return kGroupField.pow(*their, secret).toBytes();
}

SessionKeys
deriveSessionKeys(const Bytes &shared_secret)
{
    // HKDF-style: PRK = HMAC(salt="veil-channel-v1", secret),
    // then two expansion blocks.
    Bytes salt(reinterpret_cast<const uint8_t *>("veil-channel-v1"),
               reinterpret_cast<const uint8_t *>("veil-channel-v1") + 15);
    Digest prk = HmacSha256::mac(salt, shared_secret);
    Bytes prk_key(prk.begin(), prk.end());

    Bytes info_enc = {'e', 'n', 'c', 0x01};
    Digest enc_block = HmacSha256::mac(prk_key, info_enc);
    Bytes info_mac = {'m', 'a', 'c', 0x02};
    Digest mac_block = HmacSha256::mac(prk_key, info_mac);

    SessionKeys keys;
    std::copy(enc_block.begin(), enc_block.begin() + 16, keys.encKey.begin());
    std::copy(mac_block.begin(), mac_block.end(), keys.macKey.begin());
    return keys;
}

} // namespace veil::crypto
