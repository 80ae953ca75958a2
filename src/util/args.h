// Minimal command-line argument parser for the tools.
//
// Supports --flag, --key value and --key=value forms plus positional
// arguments. A bare "--" ends flag parsing; everything after it is
// positional. Valueless flags are named up front: such a flag never takes
// the next token as its value, so `--faults summary` is the flag plus the
// positional `summary`.
//
// Numeric accessors parse strictly (std::from_chars, full-token match).
// A malformed value returns the fallback and records a diagnostic
// retrievable via errors(); a caller that has not validated its flags
// checks errors() and exits non-zero instead of running with a
// silently-wrong default.
//
// The tools declare their flags as a table instead: one FlagSpec row per
// flag, and one CommandSpec per command listing the rows its code path
// reads. The table names the valueless flags, check_flags() rejects any
// other flag, any value its row's kind does not admit and any flag given
// without the flag it only matters beside, and usage() renders --help from
// the same rows.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rv::util {

enum class FlagKind {
  kBare,    // no value
  kText,    // any string
  kPath,    // a non-empty file or directory path
  kInt,     // an integer in [lo, hi]
  kReal,    // a finite number in (lo, hi]
  kChoice,  // one of the '|'-separated words of `value`
};

// The upper bound of every duration row, in the row's unit: a day, so that
// converting the value to SimTime cannot overflow.
inline constexpr double kDayMs = 86'400'000;
inline constexpr double kDaySec = 86'400;

// One row of a flag table.
struct FlagSpec {
  std::string_view name;  // without the leading "--"
  FlagKind kind = FlagKind::kBare;
  std::string_view value = {};  // usage placeholder; kChoice: the choices
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool required = false;
  std::string_view needs = {};  // the flag this one only matters beside
};

// `flag`, which the command must be given.
constexpr FlagSpec required(FlagSpec flag) {
  flag.required = true;
  return flag;
}

// `flag`, which only matters beside `other` and is rejected without it.
constexpr FlagSpec beside(FlagSpec flag, std::string_view other) {
  flag.needs = other;
  return flag;
}

// A command of a tool, or a mode a flag selects, and the rows its code path
// reads. `name` is the command word (empty for none); `operands` is the
// usage text of its positional arguments.
struct CommandSpec {
  std::string_view name = {};
  std::string_view operands = {};
  std::vector<FlagSpec> flags;
};

// The rows of `lists` in order: a command's rows built from shared lists.
std::vector<FlagSpec> join(std::initializer_list<std::vector<FlagSpec>> lists);

class Args {
 public:
  // `bare_flags` names the flags that never take a value. Any other flag
  // takes the next token as its value unless that token starts with "--".
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> bare_flags = {});
  // The bare flags are --help and the kBare rows of every command.
  Args(int argc, const char* const* argv,
       std::span<const CommandSpec> commands);

  const std::string& program() const { return program_; }

  // --key value / --key=value lookup.
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback)
      const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // --flag present (no value)?
  bool has(const std::string& key) const;
  // Every flag given, name -> value ("" for a bare flag).
  const std::map<std::string, std::string>& flags() const { return values_; }

  const std::vector<std::string>& positional() const { return positional_; }

  // The flags given that are neither bare flags nor in `valued`, as
  // "--name", in name order: the valued flags a caller reads, and the rest
  // are usage errors.
  std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> valued) const;

  // Diagnostics accumulated by the numeric accessors (one human-readable
  // line per malformed value). Empty when every queried flag parsed.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void parse(int argc, const char* const* argv);

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

// Writes one line to `err` for each flag given that `command` does not
// read, each required row missing, each value its row's kind does not
// admit and each flag given without the flag its row needs (--help is
// always accepted). Returns whether there were none.
bool check_flags(const Args& args, const CommandSpec& command,
                 std::ostream& err);

// "usage: TOOL NAME OPERANDS [--flag VALUE]...", one line per command.
std::string usage(std::string_view tool,
                  std::span<const CommandSpec> commands);

}  // namespace rv::util
