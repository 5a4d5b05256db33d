#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace brickx {

/// Error type thrown by all brickx runtime checks.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& msg,
                       std::source_location loc = std::source_location::current());

/// Runtime invariant check, active in all build types. Prefer this over
/// assert(): decompositions and exchanges are set up once and reused for
/// thousands of timesteps, so checks are not on hot paths.
inline void check(bool cond, const char* msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) fail(msg, loc);
}

/// BX_CHECK's failure path: fail() with "<msg> [<cond>]". Out of line, so
/// a check site builds no std::string of its own (a string literal `msg`
/// takes the const char* overload).
[[noreturn]] void fail_check(
    const char* msg, const char* cond,
    std::source_location loc = std::source_location::current());
[[noreturn]] void fail_check(
    const std::string& msg, const char* cond,
    std::source_location loc = std::source_location::current());

}  // namespace brickx

// Macro variant kept for call sites needing lazy message construction; the
// condition text is included in the diagnostic.
#define BX_CHECK(cond, msg)                              \
  do {                                                   \
    if (!(cond)) ::brickx::fail_check((msg), #cond);     \
  } while (0)
