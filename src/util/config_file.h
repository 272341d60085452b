// Minimal INI-style configuration files for the pcalsim CLI.
//
// Format: `[section]` headers, `key = value` pairs, `#` or `;` comments,
// blank lines ignored.  Keys are unique per section (later duplicates
// overwrite).  Values stay raw strings: the front end that reads them
// owns their meaning and their parsing.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>

namespace pcal {

class ConfigFile {
 public:
  /// Parses the stream; throws ParseError with a line number on errors.
  static ConfigFile parse(std::istream& is);

  /// Loads from a path; throws ParseError if unreadable.
  static ConfigFile load(const std::string& path);

  /// Raw string access; nullopt if absent.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  /// Every value, as section -> key -> raw string, both levels sorted.
  const std::map<std::string, std::map<std::string, std::string>>&
  sections() const {
    return values_;
  }

  /// Sets or overrides one value from "section.key=value" (the
  /// command-line override form).
  void apply_override(const std::string& spec);

 private:
  // section -> key -> value
  std::map<std::string, std::map<std::string, std::string>> values_;
};

}  // namespace pcal
