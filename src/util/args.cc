#include "util/args.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace rv::util {

Args::Args(int argc, const char* const* argv,
           std::initializer_list<std::string_view> bare_flags)
    : bare_flags_(bare_flags.begin(), bare_flags.end()) {
  parse(argc, argv);
}

Args::Args(int argc, const char* const* argv,
           std::span<const CommandSpec> commands)
    : bare_flags_{"help"} {
  for (const CommandSpec& command : commands) {
    for (const FlagSpec& flag : command.flags) {
      if (flag.kind == FlagKind::kBare) bare_flags_.emplace_back(flag.name);
    }
  }
  parse(argc, argv);
}

void Args::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!flags_done && arg == "--") {  // end-of-flags marker
      flags_done = true;
      continue;
    }
    if (flags_done || arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the key takes values and the next token isn't
    // itself a flag.
    const bool bare = std::find(bare_flags_.begin(), bare_flags_.end(),
                                body) != bare_flags_.end();
    if (!bare && i + 1 < argc &&
        std::string(argv[i + 1]).substr(0, 2) != "--") {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // bare flag
    }
  }
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  const auto parsed = parse_double(*v);
  if (!parsed) {
    errors_.push_back("--" + key + ": invalid numeric value '" + *v + "'");
    return fallback;
  }
  return *parsed;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  const auto parsed = parse_int(*v);
  if (!parsed) {
    errors_.push_back("--" + key + ": invalid integer value '" + *v + "'");
    return fallback;
  }
  return *parsed;
}

bool Args::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::vector<std::string> Args::unknown_flags(
    std::initializer_list<std::string_view> valued) const {
  std::vector<std::string> out;
  for (const auto& entry : values_) {
    if (std::find(valued.begin(), valued.end(), entry.first) ==
            valued.end() &&
        std::find(bare_flags_.begin(), bare_flags_.end(), entry.first) ==
            bare_flags_.end()) {
      out.push_back("--" + entry.first);
    }
  }
  return out;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  std::int64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::vector<FlagSpec> join(
    std::initializer_list<std::vector<FlagSpec>> lists) {
  std::vector<FlagSpec> rows;
  for (const auto& list : lists) {
    rows.insert(rows.end(), list.begin(), list.end());
  }
  return rows;
}

namespace {

// " in [lo, hi]" for a bounded numeric row, with `open` as its left bracket.
std::string range(const char* open, const FlagSpec& flag) {
  if (!std::isfinite(flag.lo) && !std::isfinite(flag.hi)) return "";
  std::ostringstream os;
  os.precision(15);  // whole bounds print whole: 86400000, not 8.64e+07
  os << " in " << open << flag.lo << ", " << flag.hi << "]";
  return os.str();
}

// Why `flag` does not admit `value`; empty when it does.
std::string rejection(const FlagSpec& flag, const std::string& value) {
  const std::string got = ", got '" + value + "'";
  switch (flag.kind) {
    case FlagKind::kBare:
      return value.empty() ? "" : "expects no value" + got;
    case FlagKind::kText:
      return "";
    case FlagKind::kPath:
      return value.empty() ? "expects a " + std::string(flag.value) : "";
    case FlagKind::kInt: {
      const auto n = parse_int(value);
      const bool ok = n && *n >= flag.lo && *n <= flag.hi;
      return ok ? "" : "expects an integer" + range("[", flag) + got;
    }
    case FlagKind::kReal: {
      const auto x = parse_double(value);
      const bool ok = x && std::isfinite(*x) && *x > flag.lo && *x <= flag.hi;
      return ok ? "" : "expects a number" + range("(", flag) + got;
    }
    case FlagKind::kChoice: {
      const auto choices = split(flag.value, '|');
      const bool ok = std::count(choices.begin(), choices.end(), value) > 0;
      return ok ? "" : "expects one of " + std::string(flag.value) + got;
    }
  }
  return "";
}

}  // namespace

bool check_flags(const Args& args, const CommandSpec& command,
                 std::ostream& err) {
  bool ok = true;
  for (const FlagSpec& flag : command.flags) {
    if (flag.required && !args.has(std::string(flag.name))) {
      err << "--" << flag.name << ": required\n";
      ok = false;
    }
  }
  for (const auto& [name, value] : args.flags()) {
    if (name == "help") continue;
    const auto row =
        std::find_if(command.flags.begin(), command.flags.end(),
                     [&](const FlagSpec& flag) { return flag.name == name; });
    std::string problem = row == command.flags.end()
                              ? "not a flag of this command (see --help)"
                              : rejection(*row, value);
    if (problem.empty() && !row->needs.empty() &&
        !args.has(std::string(row->needs))) {
      problem = "given without --" + std::string(row->needs) +
                ", which it only matters beside";
    }
    if (!problem.empty()) {
      err << "--" << name << ": " << problem << "\n";
      ok = false;
    }
  }
  return ok;
}

std::string usage(std::string_view tool,
                  std::span<const CommandSpec> commands) {
  std::string out;
  for (const CommandSpec& command : commands) {
    out += out.empty() ? "usage: " : "       ";
    out += tool;
    if (!command.name.empty()) (out += ' ') += command.name;
    if (!command.operands.empty()) (out += ' ') += command.operands;
    for (const FlagSpec& flag : command.flags) {
      out += flag.required ? " --" : " [--";
      out += flag.name;
      if (flag.kind != FlagKind::kBare) (out += ' ') += flag.value;
      if (!flag.required) out += ']';
    }
    out += '\n';
  }
  return out;
}

}  // namespace rv::util
