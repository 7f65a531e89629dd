#ifndef TDMATCH_UTIL_LOGGING_H_
#define TDMATCH_UTIL_LOGGING_H_

#include <sstream>

namespace tdmatch {
namespace util {

/// \brief The failure path of TDM_CHECK*/TDM_DCHECK*: collects the
/// streamed message, writes it to stderr as "[FATAL file:line] ...", and
/// aborts. Structured, non-fatal logging is util::obs::JsonLogger.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line);
  ~CheckFailure();

  template <typename T>
  CheckFailure& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace util
}  // namespace tdmatch

/// CHECK-style invariant assertion: always on, aborts with message on failure.
#define TDM_CHECK(cond)                              \
  if (!(cond))                                       \
  ::tdmatch::util::CheckFailure(__FILE__, __LINE__) \
      << "Check failed: " #cond " "

#define TDM_CHECK_EQ(a, b) TDM_CHECK((a) == (b))
#define TDM_CHECK_NE(a, b) TDM_CHECK((a) != (b))
#define TDM_CHECK_LT(a, b) TDM_CHECK((a) < (b))
#define TDM_CHECK_LE(a, b) TDM_CHECK((a) <= (b))
#define TDM_CHECK_GT(a, b) TDM_CHECK((a) > (b))
#define TDM_CHECK_GE(a, b) TDM_CHECK((a) >= (b))

#ifndef NDEBUG
#define TDM_DCHECK(cond) TDM_CHECK(cond)
#else
#define TDM_DCHECK(cond) \
  if (false) ::tdmatch::util::CheckFailure(__FILE__, __LINE__)
#endif

#define TDM_DCHECK_EQ(a, b) TDM_DCHECK((a) == (b))
#define TDM_DCHECK_NE(a, b) TDM_DCHECK((a) != (b))
#define TDM_DCHECK_LT(a, b) TDM_DCHECK((a) < (b))
#define TDM_DCHECK_LE(a, b) TDM_DCHECK((a) <= (b))
#define TDM_DCHECK_GT(a, b) TDM_DCHECK((a) > (b))
#define TDM_DCHECK_GE(a, b) TDM_DCHECK((a) >= (b))

#endif  // TDMATCH_UTIL_LOGGING_H_
