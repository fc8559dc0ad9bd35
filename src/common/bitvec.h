/**
 * @file
 * Bit-packed vector over GF(2).
 *
 * BitVec is the workhorse of the QEC linear algebra and of the detector
 * error model machinery: rows of parity-check matrices, Pauli frames, and
 * detector signatures are all BitVecs. Words are uint64_t, least
 * significant bit first.
 */

#ifndef CYCLONE_COMMON_BITVEC_H
#define CYCLONE_COMMON_BITVEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cyclone {

/** Dynamically sized bit vector with GF(2) arithmetic. */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct an all-zero vector of the given bit length. */
    explicit BitVec(size_t bits)
        : bits_(bits), words_((bits + 63) / 64, 0)
    {}

    /** Number of bits. */
    size_t size() const { return bits_; }

    /** Whether every bit is zero. */
    bool isZero() const;

    /** Read bit i. */
    bool
    get(size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Set bit i to value v. */
    void
    set(size_t i, bool v)
    {
        uint64_t mask = uint64_t(1) << (i & 63);
        if (v)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /** Flip bit i. */
    void
    flip(size_t i)
    {
        words_[i >> 6] ^= uint64_t(1) << (i & 63);
    }

    /** XOR another vector of equal length into this one. */
    BitVec& operator^=(const BitVec& other);

    /** AND another vector of equal length into this one. */
    BitVec& operator&=(const BitVec& other);

    bool operator==(const BitVec& other) const;
    bool operator!=(const BitVec& other) const { return !(*this == other); }

    /** Number of set bits. */
    size_t popcount() const;

    /** Parity (mod-2 sum) of the AND with another vector. */
    bool dotParity(const BitVec& other) const;

    /** Set every bit to zero, keeping the length. */
    void clear();

    /** Resize to the given bit length, zero-filling new bits. */
    void resize(size_t bits);

    /** Indices of set bits in increasing order. */
    std::vector<size_t> onesPositions() const;

    /** String of '0'/'1' characters, index 0 first. */
    std::string toString() const;

    /** 64-bit mixing hash of the contents (for dedup tables). */
    uint64_t hash() const;

    /** Direct word access (for performance-critical inner loops). */
    const std::vector<uint64_t>& words() const { return words_; }
    std::vector<uint64_t>& words() { return words_; }

    /** Number of 64-bit words backing the vector. */
    size_t numWords() const { return words_.size(); }

    /** Read word w (bits 64w .. 64w+63, LSB first). */
    uint64_t word(size_t w) const { return words_[w]; }

    /**
     * Overwrite the contents from `count` raw words without changing
     * the bit length. `count` must match numWords(); bits beyond
     * size() in the last word must already be zero (a ShotBatch row
     * keeps them zero).
     */
    void assignWords(const uint64_t* src, size_t count);

  private:
    size_t bits_ = 0;
    std::vector<uint64_t> words_;
};

/** XOR of two equal-length vectors. */
BitVec operator^(BitVec lhs, const BitVec& rhs);

} // namespace cyclone

#endif // CYCLONE_COMMON_BITVEC_H
