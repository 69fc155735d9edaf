// Lightweight runtime-check macros used across the klex libraries.
//
// Two severities are provided:
//   * KLEX_CHECK(cond, msg...)    -- internal invariant; throws
//     klex::support::CheckFailure so tests can assert on it.
//   * KLEX_REQUIRE(cond, msg...)  -- public API precondition; throws
//     std::invalid_argument with a formatted message.
//
// Both are always on (simulation correctness matters more than the
// nanoseconds saved by compiling them out; hot paths avoid them anyway).
// The message arguments are an arbitrary comma-separated list of
// ostream-formattable values and may be empty.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace klex::support {

/// Exception thrown when an internal invariant (KLEX_CHECK) fails.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] void raise_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
[[noreturn]] void raise_requirement_failure(const char* expr, const char* file,
                                            int line, const std::string& msg);

/// Formats a (possibly empty) list of values into one string.
template <typename... Args>
std::string format_message(const Args&... args) {
  std::ostringstream stream;
  ((stream << args), ...);  // an empty pack is void(), not an unused value
  return stream.str();
}

}  // namespace detail
}  // namespace klex::support

#define KLEX_CHECK(cond, ...)                                      \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::klex::support::detail::raise_check_failure(               \
          #cond, __FILE__, __LINE__,                               \
          ::klex::support::detail::format_message(__VA_ARGS__));  \
    }                                                              \
  } while (false)

#define KLEX_REQUIRE(cond, ...)                                    \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::klex::support::detail::raise_requirement_failure(         \
          #cond, __FILE__, __LINE__,                               \
          ::klex::support::detail::format_message(__VA_ARGS__));  \
    }                                                              \
  } while (false)
