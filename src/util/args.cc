#include "util/args.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace rv::util {

Args::Args(int argc, const char* const* argv,
           std::initializer_list<std::string_view> bare_flags)
    : bare_flags_(bare_flags.begin(), bare_flags.end()) {
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

}  // namespace rv::util
