// Golden test for tools/lint: every fixture under tests/lint_fixtures/
// carries its expected diagnostics inline (`// LINT-EXPECT: rule-a, rule-b`
// on the offending line, or `// LINT-EXPECT-PREV: ...` on the line after a
// malformed pragma), and the linter must report exactly that set — same
// rules, same lines, nothing extra. Clean fixtures must report nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace speedlight {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << p;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// (line, rule) pairs parsed from LINT-EXPECT / LINT-EXPECT-PREV markers.
std::set<std::pair<std::size_t, std::string>> expectations(
    const std::string& content) {
  std::set<std::pair<std::size_t, std::string>> out;
  std::istringstream in(content);
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    for (const auto& [marker, offset] :
         {std::pair<std::string, std::size_t>{"LINT-EXPECT-PREV:", 1},
          std::pair<std::string, std::size_t>{"LINT-EXPECT:", 0}}) {
      const std::size_t m = line.find(marker);
      if (m == std::string::npos) continue;
      std::stringstream rules(line.substr(m + marker.size()));
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        const std::size_t b = rule.find_first_not_of(' ');
        const std::size_t e = rule.find_last_not_of(' ');
        if (b == std::string::npos) continue;
        out.emplace(n - offset, rule.substr(b, e - b + 1));
      }
      break;  // -PREV contains the plain marker; don't parse it twice.
    }
  }
  return out;
}

std::set<std::pair<std::size_t, std::string>> actual(
    const std::vector<lint::Diagnostic>& diags) {
  std::set<std::pair<std::size_t, std::string>> out;
  for (const auto& d : diags) out.emplace(d.line, d.rule);
  return out;
}

/// Fixtures named datapath_* are scanned as if they lived on the data path.
std::string synthetic_path(const std::string& basename) {
  if (basename.rfind("datapath_", 0) == 0) return "src/switchlib/" + basename;
  return "src/check/" + basename;
}

TEST(LintTool, FixturesProduceExactlyTheMarkedDiagnostics) {
  const fs::path dir = SPEEDLIGHT_LINT_FIXTURE_DIR;
  std::size_t fixtures = 0;
  std::size_t seeded = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".cpp") continue;
    ++fixtures;
    const std::string content = read_file(entry.path());
    const std::string name = entry.path().filename().string();
    const auto expected = expectations(content);
    const auto got = actual(lint::scan_content(synthetic_path(name), content));
    EXPECT_EQ(got, expected) << "fixture " << name;
    seeded += expected.size();
    if (name.find("_clean") != std::string::npos) {
      EXPECT_TRUE(expected.empty())
          << name << ": clean fixtures must not carry LINT-EXPECT markers";
    }
  }
  EXPECT_GE(fixtures, 9u) << "fixture directory looks incomplete";
  EXPECT_GE(seeded, 24u) << "seeded violations went missing";
}

TEST(LintTool, DatapathRulesRelaxOffTheDataPath) {
  const fs::path file =
      fs::path(SPEEDLIGHT_LINT_FIXTURE_DIR) / "datapath_violation.cpp";
  const std::string content = read_file(file);
  // Same bytes, control-plane path: only the repo-wide rule remains.
  const auto got = actual(lint::scan_content("src/check/moved.cpp", content));
  for (const auto& [line, rule] : got) {
    EXPECT_EQ(rule, "raw-new-delete") << "line " << line;
  }
  EXPECT_FALSE(got.empty());
}

TEST(LintTool, DatapathClassification) {
  EXPECT_TRUE(lint::is_datapath("src/net/link.hpp"));
  EXPECT_TRUE(lint::is_datapath("/abs/repo/src/switchlib/switch.cpp"));
  EXPECT_TRUE(lint::is_datapath("src/snapshot/dataplane.cpp"));
  EXPECT_TRUE(lint::is_datapath("src/snapshot/typestate.hpp"));
  EXPECT_FALSE(lint::is_datapath("src/snapshot/observer.hpp"));
  EXPECT_FALSE(lint::is_datapath("src/snapshot/control_plane.hpp"));
  EXPECT_FALSE(lint::is_datapath("src/sim/event_queue.cpp"));
  EXPECT_FALSE(lint::is_datapath("bench/speedlight_fuzz.cpp"));
}

TEST(LintTool, RuleTableIsConsistent) {
  std::set<std::string> names;
  for (const auto& r : lint::rules()) {
    EXPECT_TRUE(names.insert(r.name).second) << "duplicate rule " << r.name;
    EXPECT_NE(std::string(r.summary), "");
  }
  EXPECT_GE(names.size(), 8u);
}

}  // namespace
}  // namespace speedlight
