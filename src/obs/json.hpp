// The JSON string helpers shared by every hand-written JSON emitter
// (manifest.json, metrics.jsonl, trace.json, fuzz_report.jsonl /
// repro-N.json, the ethsim_inspect --json views) and their scraping
// readers. The writers own their exact shapes, so a full JSON library buys
// nothing.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace ethsim::obs {

// Escapes quotes and backslashes (the strings emitted are names, hashes,
// paths and equation dumps, never control characters). No surrounding
// quotes.
std::string JsonEscape(std::string_view s);

// Writes `s` escaped and quoted.
void WriteJsonString(std::ostream& out, std::string_view s);

// Finds the first `"key":` in `text` whose value is a string and stores the
// unescaped value. False when the key is absent or its value is not a
// string.
bool JsonStringField(std::string_view text, std::string_view key,
                     std::string* value);

}  // namespace ethsim::obs
