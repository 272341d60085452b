#include "util/config_file.h"

#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/string_util.h"

namespace pcal {

ConfigFile ConfigFile::parse(std::istream& is) {
  ConfigFile cfg;
  std::string line;
  std::string section;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#' || t.front() == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3)
        throw ParseError("config line " + std::to_string(lineno) +
                         ": malformed section header");
      section = std::string(trim(t.substr(1, t.size() - 2)));
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string_view::npos)
      throw ParseError("config line " + std::to_string(lineno) +
                       ": expected 'key = value'");
    const std::string key{trim(t.substr(0, eq))};
    const std::string value{trim(t.substr(eq + 1))};
    if (key.empty())
      throw ParseError("config line " + std::to_string(lineno) +
                       ": empty key");
    cfg.values_[section][key] = value;
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ParseError("cannot open config file: " + path);
  return parse(f);
}

std::optional<std::string> ConfigFile::get(const std::string& section,
                                           const std::string& key) const {
  const auto s = values_.find(section);
  if (s == values_.end()) return std::nullopt;
  const auto k = s->second.find(key);
  if (k == s->second.end()) return std::nullopt;
  return k->second;
}

void ConfigFile::apply_override(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  const std::size_t dot = spec.find('.');
  if (eq == std::string::npos || dot == std::string::npos || dot > eq)
    throw ParseError("override must look like section.key=value: " + spec);
  values_[std::string(trim(spec.substr(0, dot)))]
         [std::string(trim(spec.substr(dot + 1, eq - dot - 1)))] =
             std::string(trim(spec.substr(eq + 1)));
}

}  // namespace pcal
