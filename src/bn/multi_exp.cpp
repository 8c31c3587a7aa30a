#include "bn/multi_exp.h"

#include <algorithm>
#include <stdexcept>

namespace p2pcash::bn {

std::size_t FixedBaseTable::memory_bytes() const {
  std::size_t limbs = 0;
  for (const auto& entry : entries_) limbs += entry.size();
  return limbs * sizeof(BigInt::Limb);
}

FixedBaseTable MontgomeryCtx::precompute_base(const BigInt& base,
                                              std::size_t max_exp_bits,
                                              std::size_t window_bits) const {
  if (window_bits == 0 || window_bits > 8)
    throw std::domain_error("precompute_base: window must be 1..8 bits");
  FixedBaseTable t;
  t.base_ = mod(base, modulus_);
  t.window_bits_ = window_bits;
  t.windows_ = std::max<std::size_t>(
      1, (max_exp_bits + window_bits - 1) / window_bits);
  const std::size_t digits = (std::size_t{1} << window_bits) - 1;
  t.entries_.reserve(t.windows_ * digits);
  // cur = base^(2^(w*i)) in Montgomery form as i advances over digit slots.
  std::vector<Limb> cur = to_mont(base);
  for (std::size_t i = 0; i < t.windows_; ++i) {
    t.entries_.push_back(cur);  // digit value 1
    for (std::size_t d = 2; d <= digits; ++d)
      t.entries_.push_back(mont_mul(t.entries_.back(), cur));
    // entries_.back() = cur^(2^w - 1), so one more multiply hops to the
    // next digit slot without any squarings.
    if (i + 1 < t.windows_) cur = mont_mul(t.entries_.back(), cur);
  }
  return t;
}

BigInt MontgomeryCtx::exp_fixed(const FixedBaseTable& table,
                                const BigInt& exponent) const {
  if (exponent.is_negative())
    throw std::domain_error("MontgomeryCtx::exp_fixed: negative exponent");
  if (exponent.is_zero()) return mod(BigInt{1}, modulus_);
  if (!table.covers(exponent.bit_length()))
    return exp(table.base_, exponent);
  const std::size_t w = table.window_bits_;
  const std::size_t digits = (std::size_t{1} << w) - 1;
  const std::size_t nwin = (exponent.bit_length() + w - 1) / w;
  std::vector<Limb> acc;
  bool started = false;
  for (std::size_t i = 0; i < nwin; ++i) {
    unsigned d = 0;
    for (std::size_t k = w; k-- > 0;)
      d = (d << 1) | (exponent.bit(i * w + k) ? 1u : 0u);
    if (d == 0) continue;
    const std::vector<Limb>& entry = table.entries_[i * digits + (d - 1)];
    if (started) {
      acc = mont_mul(acc, entry);
    } else {
      acc = entry;
      started = true;
    }
  }
  return from_mont(std::move(acc));  // started: exponent != 0 has a digit
}

BigInt MontgomeryCtx::multi_exp(std::span<const BigInt> bases,
                                std::span<const BigInt> exponents) const {
  if (bases.size() != exponents.size())
    throw std::invalid_argument("MontgomeryCtx::multi_exp: size mismatch");
  if (bases.empty()) return mod(BigInt{1}, modulus_);
  constexpr std::size_t kW = 4;
  constexpr std::size_t kDigits = (std::size_t{1} << kW) - 1;
  std::size_t max_bits = 0;
  for (const BigInt& e : exponents) {
    if (e.is_negative())
      throw std::domain_error("MontgomeryCtx::multi_exp: negative exponent");
    max_bits = std::max(max_bits, e.bit_length());
  }
  if (max_bits == 0) return mod(BigInt{1}, modulus_);
  // Per-base odd+even power tables (1..15), then one shared squaring
  // ladder: k bases cost 160 squarings total instead of 160 each.
  std::vector<std::vector<std::vector<Limb>>> tables(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    std::vector<Limb> m = to_mont(bases[i]);
    tables[i].resize(kDigits);
    tables[i][0] = std::move(m);
    for (std::size_t d = 1; d < kDigits; ++d)
      tables[i][d] = mont_mul(tables[i][d - 1], tables[i][0]);
  }
  std::vector<Limb> acc;
  bool started = false;
  const std::size_t nwin = (max_bits + kW - 1) / kW;
  for (std::size_t win = nwin; win-- > 0;) {
    if (started) {
      for (std::size_t s = 0; s < kW; ++s) acc = mont_mul(acc, acc);
    }
    for (std::size_t i = 0; i < bases.size(); ++i) {
      unsigned d = 0;
      for (std::size_t k = kW; k-- > 0;)
        d = (d << 1) | (exponents[i].bit(win * kW + k) ? 1u : 0u);
      if (d == 0) continue;
      if (started) {
        acc = mont_mul(acc, tables[i][d - 1]);
      } else {
        acc = tables[i][d - 1];
        started = true;
      }
    }
  }
  return from_mont(std::move(acc));  // started: max_bits > 0 has a digit
}

}  // namespace p2pcash::bn
