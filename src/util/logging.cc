#include "util/logging.h"

#include <cstdlib>
#include <iostream>

namespace tdmatch {
namespace util {

CheckFailure::CheckFailure(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] ";
}

CheckFailure::~CheckFailure() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace util
}  // namespace tdmatch
