#include "common/cli_args.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ebv::cli {

ArgMap parse_args(int argc, char** argv, int first) {
  ArgMap args;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string("expected --flag, got ") +
                                  argv[i]);
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

namespace {

/// Flags that once existed, with the hint printed when one is still used.
constexpr std::pair<std::string_view, std::string_view> kRemovedFlags[] = {
    {"async", "the scheduler is always deterministic"},
    {"batch", "Eva scoring is serial, --threads bounds the edge sort"},
};

}  // namespace

void check_known_flags(const ArgMap& args, const std::string& command,
                       std::initializer_list<std::string_view> known) {
  for (const auto& [flag, value] : args) {
    if (flag == "failpoints" ||
        std::find(known.begin(), known.end(), flag) != known.end()) {
      continue;
    }
    std::string message = "unknown flag --" + flag + " for '" + command + "'";
    for (const auto& [removed, hint] : kRemovedFlags) {
      if (flag == removed) {
        message += " (removed; " + std::string(hint) + ")";
      }
    }
    throw std::invalid_argument(message);
  }
}

std::string get(const ArgMap& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  if (it != args.end()) return it->second;
  if (!fallback.empty()) return fallback;
  throw std::invalid_argument("missing required --" + key);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value,
                         std::uint64_t max_value) {
  if (value.empty()) {
    throw std::invalid_argument("--" + flag +
                                ": expected a non-negative integer, got ''");
  }
  std::uint64_t result = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("--" + flag +
                                  ": expected a non-negative integer, got '" +
                                  value + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (result > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("--" + flag + ": value '" + value +
                                  "' is out of range");
    }
    result = result * 10 + digit;
  }
  if (result > max_value) {
    throw std::invalid_argument("--" + flag + ": value '" + value +
                                "' exceeds the maximum " +
                                std::to_string(max_value));
  }
  return result;
}

std::uint64_t get_uint(const ArgMap& args, const std::string& key,
                       const std::string& fallback, std::uint64_t max_value) {
  return parse_uint(key, get(args, key, fallback), max_value);
}

double parse_double(const std::string& flag, const std::string& value) {
  if (value.empty()) {
    throw std::invalid_argument("--" + flag + ": expected a number, got ''");
  }
  std::size_t consumed = 0;
  double result = 0.0;
  try {
    result = std::stod(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + flag + ": expected a number, got '" +
                                value + "'");
  }
  if (consumed != value.size()) {
    throw std::invalid_argument("--" + flag + ": expected a number, got '" +
                                value + "'");
  }
  return result;
}

double get_double(const ArgMap& args, const std::string& key,
                  const std::string& fallback) {
  return parse_double(key, get(args, key, fallback));
}

}  // namespace ebv::cli
