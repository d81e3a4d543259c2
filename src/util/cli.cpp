#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"

namespace bookleaf::util {

namespace {

/// Parse all of `text` as a T; throws util::Error naming the flag
/// otherwise (empty, trailing characters, out of range).
template <class T>
T parse_number(const std::string& key, const std::string& text,
               const char* what) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        throw Error("--" + key + ": '" + text + "' is not " + what);
    return value;
}

bool contains(const std::vector<std::string>& names, const std::string& key) {
    return std::find(names.begin(), names.end(), key) != names.end();
}

} // namespace

Cli::Cli(int argc, const char* const* argv,
         std::initializer_list<std::string_view> flags,
         std::initializer_list<std::string_view> switches)
    : flags_(flags.begin(), flags.end()),
      switches_(switches.begin(), switches.end()) {
    const auto set_flag = [&](std::string key, std::string value) {
        if (!contains(flags_, key) && !contains(switches_, key)) {
            std::string accepted;
            for (const auto* names : {&flags_, &switches_})
                for (const auto& name : *names) accepted += " --" + name;
            throw Error("unknown flag --" + key + " (accepted:" + accepted +
                        ")");
        }
        options_.emplace(std::move(key), std::move(value));
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg.rfind("--", 0) == 0) {
            const std::string body(arg.substr(2));
            const auto eq = body.find('=');
            if (eq != std::string::npos) {
                require(!contains(switches_, body.substr(0, eq)),
                        "--" + body.substr(0, eq) + " takes no value");
                set_flag(body.substr(0, eq), body.substr(eq + 1));
            } else if (!contains(switches_, body) && i + 1 < argc &&
                       std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
                set_flag(body, argv[i + 1]);
                ++i;
            } else {
                set_flag(body, "");
            }
        } else {
            positional_.emplace_back(arg);
        }
    }
}

std::optional<std::string> Cli::lookup(const std::string& key) const {
    require(contains(flags_, key) || contains(switches_, key),
            "Cli: flag --" + key + " is read but not declared");
    if (const auto it = options_.find(key); it != options_.end()) return it->second;
    return std::nullopt;
}

bool Cli::has(const std::string& key) const { return lookup(key).has_value(); }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
    return lookup(key).value_or(fallback);
}

int Cli::get_int(const std::string& key, int fallback) const {
    if (const auto v = lookup(key)) return parse_number<int>(key, *v, "an integer");
    return fallback;
}

double Cli::get_real(const std::string& key, double fallback) const {
    if (const auto v = lookup(key))
        return parse_number<double>(key, *v, "a number");
    return fallback;
}

} // namespace bookleaf::util
