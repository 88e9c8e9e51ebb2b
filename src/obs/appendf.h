#ifndef ABITMAP_OBS_APPENDF_H_
#define ABITMAP_OBS_APPENDF_H_

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>

/// Internal to src/obs: the printf-style appender every JSON, Prometheus
/// and text renderer in the layer writes through.

namespace abitmap {
namespace obs {
namespace internal {

/// Appends the formatted text to *out. Never truncates: truncating would
/// emit syntactically broken JSON (unterminated strings, clipped braces),
/// so output longer than the stack buffer is reformatted into `out`.
inline void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n <= 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(n));
  } else {
    size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[old_size], static_cast<size_t>(n) + 1, fmt,
                   args_copy);
    out->resize(old_size + static_cast<size_t>(n));
  }
  va_end(args_copy);
}

}  // namespace internal
}  // namespace obs
}  // namespace abitmap

#endif  // ABITMAP_OBS_APPENDF_H_
