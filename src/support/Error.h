//===- support/Error.h - Fatal error reporting ------------------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fatal error reporting. The project does not use exceptions; unrecoverable
/// conditions (bad command-line input, internal invariant failures that must
/// survive release builds) call reportFatalError.
///
//===----------------------------------------------------------------------===//

#ifndef ATC_SUPPORT_ERROR_H
#define ATC_SUPPORT_ERROR_H

#include <string>

namespace atc {

/// Prints "fatal error: <Msg>" to stderr and exits with status 1. Input
/// errors are not crashes: no abort, no core dump, and a test harness
/// sees an ordinary failing exit status.
[[noreturn]] void reportFatalError(const std::string &Msg);

/// Prints "warning: <Msg>" to stderr.
void reportWarning(const std::string &Msg);

} // namespace atc

#endif // ATC_SUPPORT_ERROR_H
