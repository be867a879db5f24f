/**
 * @file
 * The mutation engine shared by the deterministic input fuzzers
 * (test_wdl_fuzz, test_spec_fuzz): a seed corpus read from disk and
 * random edits steered by a per-format dictionary. A fixed Rng seed
 * gives a fixed mutant sequence, so a failure reproduces exactly.
 */

#ifndef SST_TESTS_FUZZ_UTIL_HH
#define SST_TESTS_FUZZ_UTIL_HH

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace sst {
namespace test {

/** Per-format mutation vocabulary. */
struct FuzzDictionary
{
    std::string alphabet;             ///< bytes for one-byte overwrites
    std::vector<std::string> numbers; ///< boundary values for numbers
    std::vector<std::string> tokens;  ///< fragments to insert
};

/** The text of every @p extension file under @p dirs, by sorted path. */
inline std::vector<std::string>
loadCorpus(const std::vector<std::filesystem::path> &dirs,
           const std::string &extension)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    for (const fs::path &dir : dirs)
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().extension() == extension)
                paths.push_back(entry.path());
    // Directory order is unspecified; sort for a fixed mutant sequence.
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> corpus;
    for (const fs::path &p : paths) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        corpus.push_back(text.str());
    }
    return corpus;
}

inline std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Apply one random edit to @p text. */
inline void
mutate(std::string &text, const std::vector<std::string> &corpus, Rng &rng,
       const FuzzDictionary &dict)
{
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n));
    };
    auto pos = [&] { return pick(text.size() + 1); };

    switch (rng.below(6)) {
    case 0: // overwrite one byte
        if (!text.empty())
            text[pick(text.size())] = dict.alphabet[pick(dict.alphabet.size())];
        break;
    case 1: { // delete a short span
        const std::size_t at = pos();
        text.erase(at, 1 + pick(16));
        break;
    }
    case 2: { // duplicate a span somewhere else
        const std::size_t at = pos();
        const std::string span = text.substr(at, 1 + pick(48));
        text.insert(pos(), span);
        break;
    }
    case 3: { // replace a number with a boundary value
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (std::isdigit(static_cast<unsigned char>(text[i])) &&
                (i == 0 || !std::isalnum(static_cast<unsigned char>(
                               text[i - 1]))))
                starts.push_back(i);
        }
        if (starts.empty())
            break;
        const std::size_t at = starts[pick(starts.size())];
        std::size_t end = at;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) ||
                text[end] == '.'))
            ++end;
        text.replace(at, end - at, dict.numbers[pick(dict.numbers.size())]);
        break;
    }
    case 4: // insert a dictionary token
        text.insert(pos(), dict.tokens[pick(dict.tokens.size())]);
        break;
    default: { // splice in a line of another corpus file
        std::vector<std::string> lines = linesOf(text);
        const std::vector<std::string> donor =
            linesOf(corpus[pick(corpus.size())]);
        if (lines.empty() || donor.empty())
            break;
        lines[pick(lines.size())] = donor[pick(donor.size())];
        text.clear();
        for (const std::string &line : lines)
            text += line + '\n';
        break;
    }
    }
}

} // namespace test
} // namespace sst

#endif // SST_TESTS_FUZZ_UTIL_HH
