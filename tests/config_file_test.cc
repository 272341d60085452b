#include "util/config_file.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace pcal {
namespace {

ConfigFile parse(const std::string& text) {
  std::stringstream ss(text);
  return ConfigFile::parse(ss);
}

TEST(ConfigFile, ParsesSectionsAndPairs) {
  const ConfigFile cfg = parse(
      "# comment\n"
      "[cache]\n"
      "size = 8k\n"
      "line=16\n"
      "\n"
      "; another comment\n"
      "[partition]\n"
      "  banks  =  4  \n");
  ASSERT_EQ(cfg.sections().size(), 2u);
  EXPECT_EQ(cfg.sections().at("cache").size(), 2u);
  EXPECT_EQ(cfg.get("cache", "size"), "8k");
  EXPECT_EQ(cfg.get("cache", "line"), "16");
  EXPECT_EQ(cfg.get("partition", "banks"), "4");
  EXPECT_FALSE(cfg.get("cache", "banks"));
  EXPECT_FALSE(cfg.get("missing", "size"));
}

TEST(ConfigFile, MalformedInput) {
  EXPECT_THROW(parse("[unclosed\n"), ParseError);
  EXPECT_THROW(parse("key-without-equals\n"), ParseError);
  EXPECT_THROW(parse("[s]\n= value\n"), ParseError);
}

TEST(ConfigFile, LaterDuplicateWins) {
  const ConfigFile cfg = parse("[s]\nk = 1\nk = 2\n");
  EXPECT_EQ(cfg.get("s", "k"), "2");
}

TEST(ConfigFile, Overrides) {
  ConfigFile cfg = parse("[cache]\nsize = 8k\n");
  cfg.apply_override("cache.size=16k");
  EXPECT_EQ(cfg.get("cache", "size"), "16k");
  cfg.apply_override("partition.banks = 8");
  EXPECT_EQ(cfg.get("partition", "banks"), "8");
  EXPECT_THROW(cfg.apply_override("no-dot=1"), ParseError);
  EXPECT_THROW(cfg.apply_override("a.b"), ParseError);
}

TEST(ConfigFile, KeysOutsideSectionsLandInEmptySection) {
  const ConfigFile cfg = parse("global = 1\n[s]\nk = 2\n");
  EXPECT_EQ(cfg.get("", "global"), "1");
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/nonexistent/pcal.ini"), ParseError);
}

}  // namespace
}  // namespace pcal
