//===- support/Error.cpp - Fatal error reporting --------------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Compiler.h"

#include <cstdio>
#include <cstdlib>

using namespace atc;

void atc::reportFatalError(const std::string &Msg) {
  std::fprintf(stderr, "fatal error: %s\n", Msg.c_str());
  std::exit(1);
}

void atc::reportWarning(const std::string &Msg) {
  std::fprintf(stderr, "warning: %s\n", Msg.c_str());
}

void atc::atc_unreachable_internal(const char *Msg, const char *File,
                                   unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line,
               Msg ? Msg : "");
  std::abort();
}
