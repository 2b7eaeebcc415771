// EXPERIMENTS.md's measured cells against the committed BENCH_*.json files
// they are read from: every number a checked cell prints must be its
// metric rounded to the number's own printed precision. Covered: Table 1,
// Figure 9, both measured columns of Figure 10, Figure 11's `--large`
// fat-tree sweep, Figure 12, Figure 13, and the liveness, wraparound and
// wire-encoding ablation tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchdiff/benchdiff.hpp"

#ifndef SPEEDLIGHT_REPO_DIR
#error "SPEEDLIGHT_REPO_DIR must point at the repository root"
#endif

namespace speedlight {
namespace {

using Metrics = std::map<std::string, double>;

std::string read_repo_file(const std::string& name) {
  std::ifstream in(std::string(SPEEDLIGHT_REPO_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot read " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Metrics metrics_of(const std::string& json_name) {
  Metrics flat;
  std::string err;
  EXPECT_TRUE(benchdiff::flatten_json(read_repo_file(json_name), flat, &err))
      << json_name << ": " << err;
  return flat;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(' ');
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(' ') - first + 1);
}

/// The data cells (label excluded) of the table row labelled `label` in the
/// `## ` section whose heading starts with `heading`; empty, with a test
/// failure, when there is no such row. A row may be indented (a table
/// inside a list item), and its label may be set in backticks.
std::vector<std::string> row_cells(const std::string& doc,
                                   const std::string& heading,
                                   const std::string& label) {
  const auto start = doc.find("\n" + heading);
  if (start == std::string::npos) {
    ADD_FAILURE() << "no section " << heading;
    return {};
  }
  const auto end = doc.find("\n## ", start + 1);
  std::istringstream section(doc.substr(start, end - start));
  for (std::string line; std::getline(section, line);) {
    const auto bar = line.find_first_not_of(' ');
    if (bar == std::string::npos || line[bar] != '|') continue;
    std::vector<std::string> cells;
    std::istringstream row(line.substr(bar + 1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(trim(cell));
    }
    if (!cells.empty() &&
        (cells[0] == label || cells[0] == "`" + label + "`")) {
      cells.erase(cells.begin());
      return cells;
    }
  }
  ADD_FAILURE() << heading << ": no row labelled '" << label << "'";
  return {};
}

/// Every number `cell` prints, as printed ("1.72", "4867", "18.8", "-1"),
/// with thousands separators dropped ("1,280" is "1280").
std::vector<std::string> numbers_in(const std::string& cell) {
  static const std::regex kNumber("-?[0-9]+(,[0-9]{3})*(\\.[0-9]+)?");
  std::vector<std::string> out;
  for (std::sregex_iterator it(cell.begin(), cell.end(), kNumber), end;
       it != end; ++it) {
    std::string number = it->str();
    std::erase(number, ',');
    out.push_back(number);
  }
  return out;
}

/// `value` printed with as many decimals as `printed` has.
std::string at_precision_of(double value, const std::string& printed) {
  const auto dot = printed.find('.');
  const int decimals =
      dot == std::string::npos ? 0 : static_cast<int>(printed.size() - dot - 1);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

/// The numbers in `cell` are, in order, the metrics `paths` times `scale`.
void expect_cell(const std::string& where, const std::string& cell,
                 const Metrics& json, const std::vector<std::string>& paths,
                 double scale = 1) {
  const std::vector<std::string> printed = numbers_in(cell);
  ASSERT_EQ(printed.size(), paths.size()) << where << ": '" << cell << "'";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto it = json.find(paths[i]);
    ASSERT_NE(it, json.end()) << where << ": no metric " << paths[i];
    const std::string expected =
        at_precision_of(it->second * scale, printed[i]);
    EXPECT_EQ(printed[i], expected)
        << where << ": the cell prints " << printed[i] << " but " << paths[i]
        << " = " << it->second << " prints " << expected;
  }
}

std::vector<std::string> per_variant(const std::string& resource) {
  std::vector<std::string> paths;
  for (const char* variant : {"packet_count", "wrap_around", "channel_state"}) {
    paths.push_back(std::string("metrics.") + variant + "." + resource);
  }
  return paths;
}

TEST(ExperimentsTables, Table1MatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_table1_resources.json");
  const std::string kTable = "## Table 1";
  const std::pair<const char*, const char*> kResources[] = {
      {"Stateless ALUs", "stateless_alus"},
      {"Stateful ALUs", "stateful_alus"},
      {"Logical Table IDs", "tables"},
      {"Conditional Gateways", "gateways"},
      {"Physical Stages", "stages"},
      {"SRAM (KB)", "sram_kb"},
      {"TCAM (KB)", "tcam_kb"},
  };
  for (const auto& [label, resource] : kResources) {
    const auto cells = row_cells(doc, kTable, label);
    ASSERT_EQ(cells.size(), 2u) << label;
    // A measured cell reading "exact" claims the paper column's numbers.
    const std::string& measured = cells[1] == "exact" ? cells[0] : cells[1];
    expect_cell(label, measured, json, per_variant(resource));
  }
  const auto ports14 = row_cells(doc, kTable, "14-port Chnl config");
  ASSERT_EQ(ports14.size(), 2u);
  expect_cell("14-port Chnl config", ports14[1], json,
              {"metrics.ports14.sram_kb", "metrics.ports14.tcam_kb"});
  const auto utilization = row_cells(doc, kTable, "max utilization");
  ASSERT_EQ(utilization.size(), 2u);
  expect_cell("max utilization", utilization[1], json,
              per_variant("max_utilization_frac"), /*scale=*/100);
}

TEST(ExperimentsTables, Figure9MatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_fig9_synchronization.json");
  const std::pair<const char*, const char*> kRows[] = {
      {"Speedlight w/o channel state, median", "median_sync_nocs_us"},
      {"Speedlight w/ channel state, median", "median_sync_cs_us"},
      {"w/o CS maximum", "max_sync_nocs_us"},
      {"w/ CS maximum", "max_sync_cs_us"},
      {"polling, median full sweep", "median_polling_sync_ms"},
  };
  for (const auto& [label, metric] : kRows) {
    const auto cells = row_cells(doc, "## Figure 9", label);
    ASSERT_EQ(cells.size(), 2u) << label;
    expect_cell(label, cells[1], json, {std::string("metrics.") + metric});
  }
}

TEST(ExperimentsTables, Figure10ByteChargedColumnMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_fig10_snapshot_rate.json");
  for (const std::string ports : {"4", "8", "16", "32", "64"}) {
    const auto cells = row_cells(doc, "## Figure 10", ports);
    ASSERT_EQ(cells.size(), 3u) << ports;
    expect_cell(ports + " ports", cells[2], json,
                {"metrics.max_rate_hz_" + ports + "_ports"});
  }
}

TEST(ExperimentsTables, Figure10FixedCostColumnMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_fig10_snapshot_rate.json");
  for (const std::string ports : {"4", "8", "16", "32", "64"}) {
    const auto cells = row_cells(doc, "## Figure 10", ports);
    ASSERT_EQ(cells.size(), 3u) << ports;
    expect_cell(ports + " ports", cells[1], json,
                {"metrics.fixed_cost_max_rate_hz_" + ports + "_ports"});
  }
}

TEST(ExperimentsTables, Figure12MatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_fig12_load_balancing.json");
  const std::pair<const char*, const char*> kWorkloads[] = {
      {"Hadoop", "hadoop"}, {"GraphX", "graphx"}, {"memcache", "memcache"}};
  const char* const kColumns[] = {"ecmp_snap", "flowlet_snap", "ecmp_poll",
                                  "flowlet_poll"};
  for (const auto& [label, workload] : kWorkloads) {
    const auto cells = row_cells(doc, "## Figure 12", label);
    ASSERT_EQ(cells.size(), 4u) << label;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Metrics are named in the unit the cell prints.
      const char* unit = cells[c].find("ms") != std::string::npos ? "ms" : "us";
      expect_cell(std::string(label) + " " + kColumns[c], cells[c], json,
                  {std::string("metrics.") + workload + "_" + kColumns[c] +
                   "_median_" + unit});
    }
  }
}

TEST(ExperimentsTables, Figure13MatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  Metrics json = metrics_of("BENCH_fig13_correlation.json");
  const std::string kFigure = "## Figure 13";
  const std::string snap = "metrics.snapshot.";
  const std::string poll = "metrics.polling.";

  // "70 vs 28 of 91 (+150%)": the gain is snapshots over polling, in
  // percent of polling's count.
  const double snap_pairs = json[snap + "significant_pairs"];
  const double poll_pairs = json[poll + "significant_pairs"];
  ASSERT_GT(poll_pairs, 0);
  json["derived.gain_pct"] = (snap_pairs - poll_pairs) / poll_pairs * 100;
  const auto pairs =
      row_cells(doc, kFigure, "significant pairs, snapshots vs polling");
  ASSERT_EQ(pairs.size(), 2u);
  expect_cell("significant pairs", pairs[1], json,
              {snap + "significant_pairs", poll + "significant_pairs",
               "metrics.pairs_total", "derived.gain_pct"});

  // "0 (both)": one count printed for both sides.
  const auto master =
      row_cells(doc, kFigure, "master-server port correlations");
  ASSERT_EQ(master.size(), 2u);
  EXPECT_NE(master[1].find("(both)"), std::string::npos) << master[1];
  expect_cell("master-server, snapshots", master[1], json,
              {snap + "master_significant"});
  expect_cell("master-server, polling", master[1], json,
              {poll + "master_significant"});

  // "ρ ≥ 0.21, all significant": the smallest uplink-pair rho, which reads
  // 0 when a pair is not significant.
  const auto uplinks = row_cells(doc, kFigure, "same-leaf ECMP uplink pairs");
  ASSERT_EQ(uplinks.size(), 2u);
  expect_cell("uplink pairs", uplinks[1], json,
              {snap + "min_uplink_pair_rho"});
  EXPECT_GT(json[snap + "min_uplink_pair_rho"], 0);
}

TEST(ExperimentsTables, Figure11LargeSweepMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_fig11_scalability.json");
  for (const std::string k : {"4", "8", "16", "32"}) {
    const std::string label = "k=" + k;
    const std::string m = "metrics.fat_tree.k" + k + ".";
    const auto cells = row_cells(doc, "## Figure 11", label);
    ASSERT_EQ(cells.size(), 6u) << label;
    expect_cell(label + " switches / hosts", cells[0], json,
                {m + "switches", m + "hosts"});
    expect_cell(label + " spread", cells[1], json, {m + "spread_us"});
    expect_cell(label + " capture", cells[2], json, {m + "capture_us"});
    expect_cell(label + " assemble", cells[3], json, {m + "assemble_us"});
    // RSS prints in MB of 1,024 kB.
    expect_cell(label + " construct RSS", cells[4], json,
                {m + "construct_rss_kb"}, /*scale=*/1.0 / 1024);
    expect_cell(label + " peak RSS", cells[5], json, {m + "peak_rss_kb"},
                /*scale=*/1.0 / 1024);
  }
}

TEST(ExperimentsTables, LivenessAblationMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_ablation_liveness.json");
  const char* const kColumns[] = {"completed", "excluded_devices",
                                  "mean_completion_ms"};
  for (const std::string variant : {"at_init", "at_reinit", "none"}) {
    const auto cells = row_cells(doc, "## Ablations", variant);
    ASSERT_EQ(cells.size(), 3u) << variant;
    // `none` completes no round without an exclusion: its mean completion
    // is -1, printed "n/a (-1)".
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_cell(variant + " " + kColumns[c], cells[c], json,
                  {"metrics." + variant + "." + kColumns[c]});
    }
  }
}

TEST(ExperimentsTables, WraparoundAblationMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_ablation_wraparound.json");
  // The bench names the 2^32 id space m0.
  const std::pair<const char*, const char*> kSpaces[] = {
      {"4", "m4"}, {"8", "m8"}, {"16", "m16"}, {"64", "m64"}, {"2^32", "m0"}};
  const char* const kColumns[] = {"accepted", "refused", "assembled",
                                  "timed_out"};
  for (const auto& [label, space] : kSpaces) {
    const auto cells = row_cells(doc, "## Ablations", label);
    ASSERT_EQ(cells.size(), 4u) << label;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_cell(std::string(label) + " " + kColumns[c], cells[c], json,
                  {std::string("metrics.") + space + "." + kColumns[c]});
    }
  }
}

TEST(ExperimentsTables, WireEncodingAblationMatchesItsJson) {
  const std::string doc = read_repo_file("EXPERIMENTS.md");
  const Metrics json = metrics_of("BENCH_ablation_wire_encoding.json");
  const std::pair<const char*, const char*> kRungs[] = {
      {"full v2 frames", "full"},
      {"+ delta encoding", "delta"},
      {"+ compact timestamps", "delta_compact"},
      {"+ ingress-only sync group", "sync_group"}};
  const char* const kColumns[] = {"notif_bytes_per_frame",
                                  "report_bytes_per_frame", "completion_ms"};
  for (const auto& [label, config] : kRungs) {
    const auto cells = row_cells(doc, "## Ablations", label);
    ASSERT_EQ(cells.size(), 3u) << label;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_cell(std::string(label) + " " + kColumns[c], cells[c], json,
                  {std::string("metrics.config.") + config + "." +
                   kColumns[c]});
    }
  }
}

}  // namespace
}  // namespace speedlight
