// Names for value-parameterized test cases, built from a parameter's fields
// ("seed3_probes500_loss0p02"), so a case's name is readable and does not
// depend on how its struct is laid out in memory; bb_test makes the ctest
// name the gtest name.
#ifndef BB_TESTS_PARAM_NAME_H
#define BB_TESTS_PARAM_NAME_H

#include <cstdio>
#include <string>

namespace bb {

// `v` as a name token: %g, with '.' spelled 'p' and '-' spelled 'm'.
inline std::string param_token(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    std::string out = buf;
    for (char& c : out) {
        if (c == '.') c = 'p';
        if (c == '-') c = 'm';
    }
    return out;
}

}  // namespace bb

#endif  // BB_TESTS_PARAM_NAME_H
