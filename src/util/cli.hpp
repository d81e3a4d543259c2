#pragma once
/// \file cli.hpp
/// Tiny command-line parser for examples and bench harnesses.
/// Understands `--key=value`, `--key value`, bare `--flag`, and
/// positional arguments. Each program declares the flags it reads: an
/// undeclared flag on the command line, a value given to a switch, or a
/// number that does not parse in full, throws util::Error instead of
/// being ignored or read as 0.

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bookleaf::util {

class Cli {
public:
    /// Parse argv against the declared names (without the leading `--`):
    /// `flags` take a value, `switches` never do, so a switch does not
    /// swallow the positional argument after it. Throws util::Error on an
    /// undeclared name or on `--switch=value`.
    Cli(int argc, const char* const* argv,
        std::initializer_list<std::string_view> flags,
        std::initializer_list<std::string_view> switches = {});

    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& fallback) const;
    /// The flag's value as an integer / a real, or `fallback` when the
    /// flag is absent. Throws util::Error unless the whole value parses.
    [[nodiscard]] int get_int(const std::string& key, int fallback) const;
    [[nodiscard]] double get_real(const std::string& key, double fallback) const;
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }

private:
    /// The flag's value if given. Throws util::Error when `key` was not
    /// declared (a program reading a flag it does not accept).
    [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;

    std::vector<std::string> flags_, switches_;
    std::unordered_map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace bookleaf::util
