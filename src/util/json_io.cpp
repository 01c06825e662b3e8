#include "util/json_io.h"

#include <cstdio>

#include "obs/log.h"

namespace bb {

// Atomic publish: write the whole document to <path>.tmp, then rename over
// the target.  rename(2) is atomic on POSIX, so a concurrent reader — e.g.
// a dashboard polling bb sweep's --progress-json, or a second sweep sharing
// the cache dir — sees either the previous complete file or the new one,
// never a truncated prefix.
bool write_text_file(const std::string& path, std::string_view content) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        obs::logf(obs::LogLevel::warn, "cannot write %s", tmp.c_str());
        return false;
    }
    const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
    const bool closed_ok = std::fclose(f) == 0;
    if (written != content.size() || !closed_ok) {
        obs::logf(obs::LogLevel::warn, "short write to %s", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        obs::logf(obs::LogLevel::warn, "cannot rename %s into place", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

}  // namespace bb
