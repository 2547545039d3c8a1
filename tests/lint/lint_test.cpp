// Self-test corpus for xh_lint (DESIGN.md §9): every rule must fire on its
// bad snippets, stay silent on the good ones, and honor suppressions. The
// corpus lives under tests/lint/corpus/ mirroring the repo layout so the
// path-scoped rules (src/core/ vs bench/) see realistic virtual paths.
#include "lint/lint_core.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open corpus file " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scans one corpus file the way the CLI would: virtual path relative to
/// the corpus root, sibling header attached for .cpp files.
std::vector<xh::lint::Finding> scan(const std::string& rel) {
  const fs::path root = fs::path(XH_LINT_CORPUS_DIR);
  const fs::path full = root / rel;
  xh::lint::SourceFile file{rel, read_file(full)};

  std::string header_content;
  const std::string* header = nullptr;
  fs::path sib = full;
  sib.replace_extension(".hpp");
  if (full.extension() == ".cpp" && fs::is_regular_file(sib)) {
    header_content = read_file(sib);
    header = &header_content;
  }
  return xh::lint::scan_file(file, header);
}

struct Expectation {
  const char* rel;   // corpus-relative path
  const char* rule;  // rule that must fire, or "" for must-be-clean
};

// Every corpus file appears here; CorpusIsFullyCovered enforces that.
const Expectation kExpectations[] = {
    {"src/core/det001_rand_bad.cpp", "XH-DET-001"},
    {"src/core/det001_time_bad.cpp", "XH-DET-001"},
    {"src/core/det001_chrono_bad.cpp", "XH-DET-001"},
    {"src/core/det001_random_device_bad.cpp", "XH-DET-001"},
    {"src/core/det001_digit_separator_bad.cpp", "XH-DET-001"},
    {"src/core/det001_ident_good.cpp", ""},
    {"src/core/det001_scanclock_good.cpp", ""},
    {"bench/det001_bench_good.cpp", ""},
    {"bench/det001_bench_bad.cpp", "XH-DET-001"},
    {"src/obs/det001_span_suppressed_good.cpp", ""},
    {"src/obs/det001_span_unsuppressed_bad.cpp", "XH-DET-001"},
    {"src/core/det002_local_bad.cpp", "XH-DET-002"},
    {"src/core/det002_iterator_bad.cpp", "XH-DET-002"},
    {"src/core/det002_member_bad.cpp", "XH-DET-002"},
    {"src/core/det002_member_bad.hpp", ""},
    {"src/core/det002_lookup_good.cpp", ""},
    {"src/core/err001_throw_bad.cpp", "XH-ERR-001"},
    {"src/core/err001_abort_bad.cpp", "XH-ERR-001"},
    {"src/core/err001_require_good.cpp", ""},
    {"src/response/err001_outside_good.cpp", ""},
    {"src/core/parse001_bad.cpp", "XH-PARSE-001"},
    {"src/core/parse001_good.cpp", ""},
    {"src/core/hdr001_missing_bad.hpp", "XH-HDR-001"},
    {"src/core/hdr001_late_bad.hpp", "XH-HDR-001"},
    {"src/core/hdr002_using_bad.hpp", "XH-HDR-002"},
    {"src/core/hdr_clean_good.hpp", ""},
    {"src/service/flow001_discard_bad.cpp", "XH-FLOW-001"},
    {"src/service/flow001_overwrite_bad.cpp", "XH-FLOW-001"},
    {"src/service/flow001_checked_good.cpp", ""},
    {"src/service/flow002_spin_bad.cpp", "XH-FLOW-002"},
    {"src/service/flow002_consult_good.cpp", ""},
    {"src/storage/flow003_seam_bad.cpp", "XH-FLOW-003"},
    {"src/storage/flow003_seam_good.cpp", ""},
    {"src/service/flow003_guard_bad.cpp", "XH-FLOW-003"},
    {"src/service/flow003_guard_good.cpp", ""},
    {"src/service/flow004_move_bad.cpp", "XH-FLOW-004"},
    {"src/service/flow004_rebind_good.cpp", ""},
    {"src/core/suppress_line_good.cpp", ""},
    {"src/core/suppress_above_good.cpp", ""},
    {"src/core/suppress_file_good.cpp", ""},
    {"src/core/suppress_wrong_rule_bad.cpp", "XH-DET-001"},
    {"src/core/literal_good.cpp", ""},
};

std::string describe(const std::vector<xh::lint::Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += xh::lint::to_string(f) + "\n";
  return out;
}

TEST(LintCorpus, BadSnippetsFireTheirRule) {
  for (const Expectation& e : kExpectations) {
    if (std::string(e.rule).empty()) continue;
    const auto findings = scan(e.rel);
    const bool fired =
        std::any_of(findings.begin(), findings.end(),
                    [&](const xh::lint::Finding& f) { return f.rule == e.rule; });
    EXPECT_TRUE(fired) << e.rel << " must trigger " << e.rule << "; got:\n"
                       << describe(findings);
    // Bad snippets are minimal: they must not trip unrelated rules either.
    for (const auto& f : findings) {
      EXPECT_EQ(f.rule, e.rule) << "unexpected extra finding in " << e.rel
                                << ":\n"
                                << describe(findings);
    }
  }
}

TEST(LintCorpus, GoodSnippetsStayClean) {
  for (const Expectation& e : kExpectations) {
    if (!std::string(e.rule).empty()) continue;
    const auto findings = scan(e.rel);
    EXPECT_TRUE(findings.empty())
        << e.rel << " must be clean; got:\n" << describe(findings);
  }
}

TEST(LintCorpus, CorpusIsFullyCovered) {
  std::set<std::string> expected;
  for (const Expectation& e : kExpectations) expected.insert(e.rel);
  const fs::path root = fs::path(XH_LINT_CORPUS_DIR);
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    EXPECT_TRUE(expected.count(rel) == 1)
        << "corpus file " << rel << " has no expectation in lint_test.cpp";
  }
}

TEST(LintFindings, CarryLineNumbersAndFormat) {
  xh::lint::SourceFile file{"src/core/example.cpp",
                            "#include <cstdlib>\n"
                            "int a() { return 1; }\n"
                            "int b() { return rand(); }\n"};
  const auto findings = xh::lint::scan_file(file);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "XH-DET-001");
  EXPECT_EQ(xh::lint::to_string(findings[0]).substr(0, 25),
            "src/core/example.cpp:3: [");
}

TEST(LintFindings, MultipleRulesSortedByLine) {
  xh::lint::SourceFile file{"src/engine/example.cpp",
                            "#include <cstdlib>\n"
                            "void x() { throw 1; }\n"
                            "int y(const char* s) { return atoi(s); }\n"
                            "int z() { return rand(); }\n"};
  const auto findings = xh::lint::scan_file(file);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "XH-ERR-001");
  EXPECT_EQ(findings[1].rule, "XH-PARSE-001");
  EXPECT_EQ(findings[2].rule, "XH-DET-001");
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(),
      [](const auto& a, const auto& b) { return a.line < b.line; }));
}

TEST(LintRules, RegistryListsEveryRuleFamily) {
  const auto& rules = xh::lint::rules();
  ASSERT_EQ(rules.size(), 20u);
  std::set<std::string> ids;
  for (const auto& r : rules) ids.insert(r.id);
  EXPECT_EQ(ids, (std::set<std::string>{
                     "XH-DET-001", "XH-DET-002", "XH-ERR-001", "XH-PARSE-001",
                     "XH-HDR-001", "XH-HDR-002", "XH-INC-001", "XH-INC-002",
                     "XH-INC-003", "XH-API-001", "XH-OBS-001", "XH-SUP-001",
                     "XH-FLOW-001", "XH-FLOW-002", "XH-FLOW-003",
                     "XH-FLOW-004", "XH-IPA-001", "XH-IPA-002",
                     "XH-RACE-001", "XH-RACE-002"}));
}

TEST(LintRules, RegistryVersionTracksTheRuleSet) {
  const std::string v = xh::lint::registry_version();
  // "xh-lint-registry/<count>/<16-hex-digit hash>" — the count makes a
  // grown registry visibly different, the hash catches edits in place.
  EXPECT_EQ(v.rfind("xh-lint-registry/20/", 0), 0u) << v;
  EXPECT_EQ(v.size(), std::string("xh-lint-registry/20/").size() + 16) << v;
  EXPECT_EQ(v, xh::lint::registry_version());  // deterministic
}

TEST(LintFindings, JsonDocumentIsVersionedAndEscaped) {
  const std::vector<xh::lint::Finding> findings = {
      {"src/a.cpp", 3, "XH-DET-001", "uses \"rand\"\n"},
  };
  const std::string json = xh::lint::findings_to_json(findings);
  EXPECT_NE(json.find("\"schema\": \"xh-lint-findings/1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"XH-DET-001\""), std::string::npos);
  EXPECT_NE(json.find("\"by_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"XH-DET-001\": 1"), std::string::npos);
  EXPECT_NE(json.find("uses \\\"rand\\\"\\n"), std::string::npos);
  // Keys are emitted sorted at every level so baseline diffs are textual.
  EXPECT_LT(json.find("\"by_rule\""), json.find("\"count\""));
  EXPECT_LT(json.find("\"count\""), json.find("\"findings\""));
  EXPECT_LT(json.find("\"findings\""), json.find("\"schema\""));
  EXPECT_LT(json.find("\"line\""), json.find("\"message\""));
  EXPECT_LT(json.find("\"message\""), json.find("\"path\""));
  EXPECT_LT(json.find("\"path\""), json.find("\"rule\""));
  const std::string empty = xh::lint::findings_to_json({});
  EXPECT_NE(empty.find("\"count\": 0"), std::string::npos);
}

TEST(LintFindings, SarifDocumentCarriesRulesAndResults) {
  const std::vector<xh::lint::Finding> findings = {
      {"src/a.cpp", 3, "XH-RACE-002", "posts while holding \"mu_\""},
  };
  const std::string sarif = xh::lint::findings_to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"xh_lint\""), std::string::npos);
  // Every registry rule is described in the driver block, fired or not.
  for (const auto& r : xh::lint::rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + r.id + "\""), std::string::npos)
        << r.id;
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"XH-RACE-002\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("posts while holding \\\"mu_\\\""),
            std::string::npos);
  // An empty run still produces a valid document with the rule list.
  const std::string empty = xh::lint::findings_to_sarif({});
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos);
}

}  // namespace
