#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "js/token.h"
#include "support/limits.h"

namespace jsceres::js {

/// Error raised for malformed source; carries the 1-based line number.
class LexError : public std::runtime_error {
 public:
  LexError(const std::string& message, int line)
      : std::runtime_error(message + " (line " + std::to_string(line) + ")"),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// Tokenize an entire source buffer. The token stream always ends with an
/// explicit Eof token. Each token is plain data (see Token); the vector is
/// reserved from the source length up front.
///
/// Names and string values are interned into `atoms` (the space of the
/// program being parsed) through a lex-local open-addressed table keyed by
/// spelling, so `atoms.intern` runs once per distinct spelling. Keyword
/// tokens carry the keywords' prefix atoms and do not touch `atoms`.
///
/// `limits.max_source_bytes` rejects oversized buffers up front and
/// `limits.max_tokens` caps the token stream while it is produced. Either
/// trip raises LexError with the offending line (line 1 for the
/// source-size check).
std::vector<Token> lex(std::string_view source, AtomSpace& atoms,
                       const EngineLimits& limits = {});

}  // namespace jsceres::js
