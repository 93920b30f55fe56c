// perfbench: runs one workload closed-loop (one client, one thread,
// the next op starts when the previous one returns) and prints the raw
// per-op timings as one JSON line. perfbench/run.py builds this binary,
// runs it (several times per measurement, see NOTE.md), and turns its
// output into the benchmark's metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--first I] [--size N] [--max-ops N] [--expect FINGERPRINT]
//
// An op is one campaign of the workload's campaign set; ops cycle through
// the set, starting at campaign --first. Set-up is everything before the
// first timed op: building the workload and one untimed warm-up op, which
// fills the process-global decode-plan and superblock registries. The
// warm-up op is campaign 0 at the pinned seed whatever --seed is, so set-up
// does the same work at every seed and is checked against its pin at the
// default size. Every op's fingerprint is compared with its campaign's
// reference: --expect when given, else the pinned value at the pinned seed
// and default size, else the campaign's first timed run in this process
// (run.py checks that the processes of one measurement agree). A mismatch
// is a failed op. --seconds may be fractional.
//
// With --trace 1, passes over the set alternate between the untraced entry
// point and the traced variant (workloads.hpp), so trace overhead is
// measured in the same host regime as the ops it inflates. span_coverage
// is the share of all traced wall time that the layer spans account for;
// run.py fails the run below 0.95.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  std::uint64_t size = 0;
  std::uint64_t max_ops = 0;  // 0 = until --seconds elapse
  std::uint64_t first = 0;    // campaign of the first timed op
  std::optional<std::string> expect;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    const auto number = [&] {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Die("bad number for " + flag);
      return static_cast<std::uint64_t>(v);
    };
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = number();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds >= 0)) {
        Die("bad number for " + flag);
      }
    } else if (flag == "--trace") {
      a.trace = number() != 0;
    } else if (flag == "--size") {
      a.size = number();
    } else if (flag == "--max-ops") {
      a.max_ops = number();
    } else if (flag == "--first") {
      a.first = number();
    } else if (flag == "--expect") {
      a.expect = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// JSON string literal (the fingerprints are ASCII; escape the rest).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The first line where `got` and `want` differ, for the failure report
/// (grid fingerprints are 60 lines long).
std::string Mismatch(const std::string& got, const std::string& want) {
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  std::size_t begin = 0;
  if (at != 0) {
    const std::size_t newline = got.rfind('\n', at - 1);
    if (newline != std::string::npos) begin = newline + 1;
  }
  const auto until_eol = [begin](const std::string& s) {
    return s.substr(begin, s.find('\n', begin) - begin);
  };
  return "got \"" + until_eol(got) + "\", want \"" + until_eol(want) + "\"";
}

/// Peak resident set of this process image in KiB (VmHWM). getrusage's
/// ru_maxrss is not used: it survives exec, so it can report the launching
/// process's peak instead of this one's.
std::uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One JSON list of op times per campaign.
std::string Lists(const std::vector<std::vector<double>>& lists) {
  std::string out = "[";
  for (std::size_t c = 0; c < lists.size(); ++c) {
    out += c == 0 ? "[" : ",[";
    for (std::size_t i = 0; i < lists[c].size(); ++i) {
      if (i != 0) out += ",";
      out += Number(lists[c][i]);
    }
    out += "]";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const Args args = ParseArgs(argc, argv);

  auto workload_or =
      perfbench::MakeWorkload(args.workload, args.seed, args.size);
  if (!workload_or.ok()) Die(workload_or.status().ToString());
  perfbench::Workload& workload = *workload_or.value();
  const std::size_t campaigns = workload.campaigns();

  auto warmup_or =
      perfbench::MakeWorkload(args.workload, perfbench::kPinnedSeed, args.size);
  if (!warmup_or.ok()) Die(warmup_or.status().ToString());
  perfbench::Workload& warmup_set = *warmup_or.value();
  auto warmup = warmup_set.Run(0);
  if (!warmup.ok()) Die("warm-up op: " + warmup.status().ToString());
  const bool warmup_ok =
      warmup_set.pinned(0).empty() || warmup.value() == warmup_set.pinned(0);

  // Empty until the campaign's first timed run when nothing is pinned.
  std::vector<std::string> reference(campaigns);
  for (std::size_t i = 0; i < campaigns; ++i) {
    reference[i] = args.expect.value_or(workload.pinned(i));
  }
  const bool pinned = !workload.pinned(0).empty();
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::vector<double>> op_s(campaigns);
  std::vector<std::vector<double>> traced_op_s(campaigns);
  // Traced wall time, and the part of it the layer spans account for.
  double traced_s = 0;
  double covered_s = 0;
  // Per-layer quantities summed over each complete traced pass.
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, double> pass;
  const auto fail = [&](const std::string& what) {
    ++failed;
    if (failed <= 3) std::fprintf(stderr, "failed op: %s\n", what.c_str());
  };

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // At least one op, and with tracing one pass of each kind (traced runs
  // start at campaign 0 so that a traced pass is a whole set).
  const std::uint64_t min_ops = args.trace ? 2 * campaigns : 1;
  const std::uint64_t first_campaign = args.trace ? 0 : args.first % campaigns;
  while (attempted < min_ops ||
         (Clock::now() < deadline &&
          (args.max_ops == 0 || attempted < args.max_ops))) {
    const std::size_t i = (first_campaign + attempted) % campaigns;
    const bool traced = args.trace && (attempted / campaigns) % 2 == 1;
    ++attempted;
    if (traced) {
      auto op = workload.RunTraced(i);
      if (!op.ok()) {
        fail(op.status().ToString());
        continue;
      }
      traced_op_s[i].push_back(op.value().seconds);
      traced_s += op.value().seconds;
      covered_s += op.value().span_coverage * op.value().seconds;
      for (const auto& [name, value] : op.value().layers) pass[name] += value;
      if (i + 1 == campaigns) {
        for (const auto& [name, value] : pass) layers[name].push_back(value);
        pass.clear();
      }
      if (op.value().fingerprint != reference[i]) {
        fail("traced op: " + Mismatch(op.value().fingerprint, reference[i]));
      }
      continue;
    }
    const Clock::time_point start = Clock::now();
    auto fingerprint = workload.Run(i);
    op_s[i].push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!fingerprint.ok()) {
      fail(fingerprint.status().ToString());
    } else if (reference[i].empty()) {
      reference[i] = fingerprint.value();
    } else if (fingerprint.value() != reference[i]) {
      fail(Mismatch(fingerprint.value(), reference[i]));
    }
  }

  std::string out = "{";
  out += "\"workload\":" + Quote(args.workload);
  out += ",\"campaigns\":" + std::to_string(campaigns);
  out += ",\"items_per_campaign\":" + std::to_string(workload.items());
  out += ",\"setup_s\":" + Number(setup_s);
  out += ",\"warmup_ok\":" + std::string(warmup_ok ? "true" : "false");
  out += ",\"pinned\":" + std::string(pinned ? "true" : "false");
  out += ",\"references\":[";
  for (std::size_t i = 0; i < campaigns; ++i) {
    out += (i == 0 ? "" : ",") + Quote(reference[i]);
  }
  out += "]";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"op_s\":" + Lists(op_s);
  out += ",\"traced_op_s\":" + Lists(traced_op_s);
  out += ",\"span_coverage\":" +
         Number(traced_s > 0 ? covered_s / traced_s : 0);
  out += ",\"peak_rss_kb\":" + std::to_string(PeakRssKb());
  out += ",\"compiler\":" + Quote(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  out += ",\"layers\":{";
  bool first = true;
  for (const auto& [name, values] : layers) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":" + Number(Median(values));
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
