// Minimal command-line argument parser for the tools.
//
// Supports --flag, --key value and --key=value forms plus positional
// arguments. A bare "--" ends flag parsing; everything after it is
// positional. A tool names its valueless flags up front: such a flag never
// takes the next token as its value, so `--faults summary` is the flag plus
// the positional `summary`. unknown_flags() lists the flags a tool does not
// read, so the tool can reject them.
//
// Numeric accessors parse strictly (std::from_chars, full-token match).
// A malformed value returns the fallback and records a diagnostic
// retrievable via errors(); tools are expected to check errors() after
// parsing their flags and exit non-zero instead of running with a
// silently-wrong default.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rv::util {

class Args {
 public:
  // `bare_flags` names the flags that never take a value. Any other flag
  // takes the next token as its value unless that token starts with "--".
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> bare_flags = {});

  const std::string& program() const { return program_; }

  // --key value / --key=value lookup.
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback)
      const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // --flag present (no value)?
  bool has(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // The flags given that are neither bare flags nor in `valued`, as
  // "--name", in name order. Tools pass every valued flag they read and
  // treat the rest as usage errors.
  std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> valued) const;

  // Diagnostics accumulated by the numeric accessors (one human-readable
  // line per malformed value). Empty when every queried flag parsed.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> bare_flags_;
  // Numeric accessors are const; diagnostics are a side channel.
  mutable std::vector<std::string> errors_;
};

// Strict full-token numeric parses, also used for the tools' positional
// arguments. Return std::nullopt unless the entire token is a valid number.
std::optional<std::int64_t> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);

}  // namespace rv::util
