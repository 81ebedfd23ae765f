#include "crypto/field.hh"

#include <vector>

namespace veil::crypto {

namespace {

__extension__ typedef unsigned __int128 u128;

/** r += v (v < 2^64) across all limbs; returns the carry out of 2^256. */
uint64_t
addSmall(U256 &r, uint64_t v)
{
    for (uint64_t &limb : r.w) {
        u128 cur = u128(limb) + v;
        limb = static_cast<uint64_t>(cur);
        v = static_cast<uint64_t>(cur >> 64);
    }
    return v;
}

/** 4-bit digit @p i of @p x (0 = least significant). */
unsigned
nibble(const U256 &x, size_t i)
{
    return (x.w[i / 16] >> (4 * (i % 16))) & 0xf;
}

} // namespace

std::optional<U256>
U256::fromBytes(const uint8_t *be, size_t len)
{
    U256 out;
    for (size_t pos = 0; pos < len; ++pos) {
        uint8_t b = be[len - 1 - pos];
        if (pos >= 32) {
            if (b != 0)
                return std::nullopt;
            continue;
        }
        out.w[pos / 8] |= uint64_t(b) << (8 * (pos % 8));
    }
    return out;
}

Bytes
U256::toBytes() const
{
    Bytes out(32);
    for (size_t pos = 0; pos < 32; ++pos)
        out[31 - pos] = static_cast<uint8_t>(w[pos / 8] >> (8 * (pos % 8)));
    return out;
}

bool
U256::operator<(const U256 &o) const
{
    for (size_t i = 4; i-- > 0;) {
        if (w[i] != o.w[i])
            return w[i] < o.w[i];
    }
    return false;
}

U256
PmRing::modulus() const
{
    // (2^256 - 1) - (c - 1): no limb borrows.
    return U256{{~(c_ - 1), ~uint64_t(0), ~uint64_t(0), ~uint64_t(0)}};
}

U256
PmRing::reduce(const U256 &a) const
{
    // a >= m exactly when a + c carries out of 2^256, and then the
    // wrapped sum is a - m.
    U256 r = a;
    return addSmall(r, c_) ? r : a;
}

U256
PmRing::add(const U256 &a, const U256 &b) const
{
    U256 s;
    uint64_t carry = 0;
    for (size_t i = 0; i < 4; ++i) {
        u128 cur = u128(a.w[i]) + b.w[i] + carry;
        s.w[i] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
    }
    if (carry) {
        // a + b = 2^256 + s, and a + b - m < m, so s + c is exact.
        addSmall(s, c_);
        return s;
    }
    return reduce(s);
}

U256
PmRing::mul(const U256 &a, const U256 &b) const
{
    uint64_t t[8] = {};
    for (size_t i = 0; i < 4; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; j < 4; ++j) {
            u128 cur = u128(a.w[i]) * b.w[j] + t[i + j] + carry;
            t[i + j] = static_cast<uint64_t>(cur);
            carry = static_cast<uint64_t>(cur >> 64);
        }
        t[i + 4] = carry;
    }

    // First fold: lo + hi * c leaves a fifth limb of at most c.
    U256 r;
    uint64_t top = 0;
    for (size_t i = 0; i < 4; ++i) {
        u128 cur = u128(t[i + 4]) * c_ + t[i] + top;
        r.w[i] = static_cast<uint64_t>(cur);
        top = static_cast<uint64_t>(cur >> 64);
    }
    // Second fold: top * c < 2^128. If it carries out of 2^256 the
    // wrapped value is below 2^128, so the third fold (+c) cannot carry.
    u128 cur = u128(top) * c_ + r.w[0];
    r.w[0] = static_cast<uint64_t>(cur);
    uint64_t carry = static_cast<uint64_t>(cur >> 64);
    for (size_t i = 1; i < 4; ++i) {
        cur = u128(r.w[i]) + carry;
        r.w[i] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
    }
    if (carry)
        addSmall(r, c_);
    return reduce(r);
}

U256
PmRing::pow(const U256 &base, const U256 &exp) const
{
    U256 table[16];
    table[0] = u256(1);
    table[1] = reduce(base);
    for (size_t d = 2; d < 16; ++d)
        table[d] = mul(table[d - 1], table[1]);

    U256 r = u256(1);
    bool started = false;
    for (size_t i = 64; i-- > 0;) {
        if (started) {
            for (int k = 0; k < 4; ++k)
                r = mul(r, r);
        }
        if (unsigned d = nibble(exp, i)) {
            r = started ? mul(r, table[d]) : table[d];
            started = true;
        }
    }
    return r;
}

U256
generatorPow(const U256 &e)
{
    // table[16 * i + d] = g^(d * 16^i): one multiply per nonzero
    // exponent nibble and no squarings. 64 x 16 entries, 32 KiB.
    static const std::vector<U256> table = [] {
        std::vector<U256> t(64 * 16);
        U256 base = u256(kGroupGenerator); // g^(16^i)
        for (size_t i = 0; i < 64; ++i) {
            t[16 * i] = u256(1);
            for (size_t d = 1; d < 16; ++d)
                t[16 * i + d] = kGroupField.mul(t[16 * i + d - 1], base);
            base = kGroupField.mul(t[16 * i + 15], base);
        }
        return t;
    }();

    U256 r = u256(1);
    for (size_t i = 0; i < 64; ++i) {
        if (unsigned d = nibble(e, i))
            r = kGroupField.mul(r, table[16 * i + d]);
    }
    return r;
}

} // namespace veil::crypto
