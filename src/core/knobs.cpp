#include "core/knobs.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace qtc::knobs {

namespace {

/// Override slots hold value + 1, so the zero-initialized state means "no
/// override" from before any static constructor runs (every hi is below
/// 2^64 - 1, so value + 1 cannot wrap).
std::atomic<std::uint64_t> g_override[kNumKnobs] = {};

bool iequals(const char* s, const char* word) {
  for (; *s && *word; ++s, ++word)
    if (std::tolower(static_cast<unsigned char>(*s)) != *word) return false;
  return *s == *word;
}

bool is_false_word(const char* s) {
  return iequals(s, "0") || iequals(s, "off") || iequals(s, "false") ||
         iequals(s, "no");
}

}  // namespace

std::uint64_t parse(Knob k, const char* text) {
  const Spec& s = spec(k);
  if (!text || !*text) return s.def;
  if (s.type == Type::Flag) return is_false_word(text) ? 0 : 1;
  std::uint64_t v = 0;
  if (!is_false_word(text)) {
    errno = 0;
    char* end = nullptr;
    v = std::strtoull(text, &end, s.type == Type::U64 ? 0 : 10);
    if (end == text || *end != '\0' || errno == ERANGE) return s.def;
    // strtoull negates a leading '-' modulo 2^64; a negative value is
    // below every lo.
    if (v != 0 && std::strchr(text, '-')) return s.def;
  }
  if (v < s.lo) return s.def;
  return std::min(v, s.hi);
}

std::uint64_t get(Knob k) {
  const std::uint64_t o =
      g_override[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  if (o != 0) return o - 1;
  return parse(k, std::getenv(spec(k).name));
}

void set(Knob k, std::uint64_t value) {
  const Spec& s = spec(k);
  const std::uint64_t v =
      s.type == Type::Flag ? (value != 0) : std::clamp(value, s.lo, s.hi);
  g_override[static_cast<std::size_t>(k)].store(v + 1,
                                                std::memory_order_relaxed);
}

void clear(Knob k) {
  g_override[static_cast<std::size_t>(k)].store(0, std::memory_order_relaxed);
}

}  // namespace qtc::knobs
