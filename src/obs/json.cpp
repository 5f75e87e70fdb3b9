#include "obs/json.hpp"

#include <ostream>
#include <utility>

namespace ethsim::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJsonString(std::ostream& out, std::string_view s) {
  out << '"' << JsonEscape(s) << '"';
}

bool JsonStringField(std::string_view text, std::string_view key,
                     std::string* value) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string_view::npos) return false;
  std::size_t i = text.find_first_not_of(" \t\r\n", pos + needle.size());
  if (i == std::string_view::npos || text[i] != '"') return false;
  std::string out;
  for (++i; i < text.size() && text[i] != '"'; ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) ++i;
    out.push_back(text[i]);
  }
  if (i == text.size()) return false;  // unterminated string
  *value = std::move(out);
  return true;
}

}  // namespace ethsim::obs
