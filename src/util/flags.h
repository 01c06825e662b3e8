// Minimal command-line flag parsing for the shipped tools.
//
//   FlagSet flags{"bb sweep", "every cell of a spec or sweep spec"};
//   auto p = flags.add_double("p", 0.3, "probe rate per slot");
//   auto out = flags.add_string("csv", "", "write probe outcomes to FILE");
//   if (!flags.parse(argc, argv)) return 1;   // prints error/usage
//   use(*p, *out);
//
// Supports --name=value, --name value, --flag (booleans), and --help.
#ifndef BB_UTIL_FLAGS_H
#define BB_UTIL_FLAGS_H

#include <memory>
#include <string>
#include <vector>

namespace bb {

class FlagSet {
public:
    FlagSet(std::string program, std::string description)
        : program_{std::move(program)}, description_{std::move(description)} {}

    FlagSet(const FlagSet&) = delete;
    FlagSet& operator=(const FlagSet&) = delete;

    // Returned pointers stay valid for the life of the FlagSet.
    [[nodiscard]] const std::string* add_string(const std::string& name,
                                                const std::string& default_value,
                                                const std::string& help);
    [[nodiscard]] const double* add_double(const std::string& name, double default_value,
                                           const std::string& help);
    [[nodiscard]] const std::int64_t* add_int(const std::string& name,
                                              std::int64_t default_value,
                                              const std::string& help);
    [[nodiscard]] const bool* add_bool(const std::string& name, bool default_value,
                                       const std::string& help);

    // Opt in to positional arguments (off by default).  `placeholder` names
    // them in usage output; parse() then requires between min_count and
    // max_count of them.
    void allow_positionals(std::size_t min_count, std::size_t max_count,
                           std::string placeholder);
    [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
        return positionals_;
    }

    // Parse argv.  On error or --help, prints to stderr/stdout and returns
    // false.  Unknown flags are errors; positional arguments are errors
    // unless allow_positionals() was called.
    [[nodiscard]] bool parse(int argc, const char* const* argv);

    // True if the flag was explicitly set on the command line.
    [[nodiscard]] bool is_set(const std::string& name) const;

    void print_usage() const;

    [[nodiscard]] const std::string& error() const noexcept { return error_; }

private:
    enum class Kind { string_v, double_v, int_v, bool_v };
    struct Flag {
        std::string name;
        std::string help;
        Kind kind;
        bool set{false};
        std::unique_ptr<std::string> s;
        std::unique_ptr<double> d;
        std::unique_ptr<std::int64_t> i;
        std::unique_ptr<bool> b;
        std::string default_repr;
    };

    Flag* find(const std::string& name);
    [[nodiscard]] bool assign(Flag& flag, const std::string& value);
    bool fail(const std::string& message);

    std::string program_;
    std::string description_;
    std::string error_;
    std::vector<std::unique_ptr<Flag>> flags_;
    bool positionals_allowed_{false};
    std::size_t positionals_min_{0};
    std::size_t positionals_max_{0};
    std::string positionals_placeholder_;
    std::vector<std::string> positionals_;
};

}  // namespace bb

#endif  // BB_UTIL_FLAGS_H
