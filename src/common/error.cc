#include "common/error.h"

#include <sstream>

namespace brickx {

void fail(const std::string& msg, std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ":" << loc.line() << ": " << msg;
  throw Error(os.str());
}

void fail_check(const char* msg, const char* cond, std::source_location loc) {
  fail(std::string(msg) + " [" + cond + "]", loc);
}

void fail_check(const std::string& msg, const char* cond,
                std::source_location loc) {
  fail(msg + " [" + cond + "]", loc);
}

}  // namespace brickx
