// Machine-readable bench output: each bench binary accepts `--json[=path]`
// and dumps a flat JSON object of its headline numbers (steps/sec,
// execs/sec, reboot cost, speedups), so CI can archive and diff performance
// across commits without scraping the human tables. Every artifact also
// records where it was measured — host CPU model, compiler, build type and
// core count — so a baseline diff can tell a regression from a different
// machine; the regression gate never compares those keys. A bench that
// repeats its measurements reports each number as the median of its runs
// and records their count as the `repetitions` key, likewise never gated:
// one run on a shared host can swing ±30%. Header-only and
// deliberately tiny — flat string/number objects only, no escaping beyond
// what our own keys need.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef CONNLAB_BENCH_COMPILER
#define CONNLAB_BENCH_COMPILER "unknown"
#endif
#ifndef CONNLAB_BENCH_BUILD_TYPE
#define CONNLAB_BENCH_BUILD_TYPE "unknown"
#endif

namespace connlab::benchout {

/// Strips a `--json[=path]` flag from argv (so google-benchmark never sees
/// it) and returns the output path: `default_path` for a bare `--json`,
/// empty string when the flag is absent.
inline std::string TakeJsonFlag(int& argc, char** argv,
                                const std::string& default_path) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--json") {
      path = default_path;
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      if (path.empty()) path = default_path;
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

/// Repeated measurements, one series per key in first-seen order; each is
/// reported as its median (the mean of the middle two for an even count).
class Samples {
 public:
  void Add(const std::string& key, double value) {
    for (auto& [name, values] : series_) {
      if (name == key) {
        values.push_back(value);
        return;
      }
    }
    series_.push_back({key, {value}});
  }

  [[nodiscard]] double Median(const std::string& key) const {
    for (const auto& [name, values] : series_) {
      if (name != key) continue;
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t mid = sorted.size() / 2;
      return sorted.size() % 2 == 1 ? sorted[mid]
                                    : (sorted[mid - 1] + sorted[mid]) / 2;
    }
    return 0;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, std::vector<double>>>&
  series() const noexcept {
    return series_;
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

/// The host's CPU model (Linux /proc/cpuinfo), with the characters a flat
/// JSON string cannot hold unescaped dropped; "unknown" elsewhere.
inline std::string HostCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
        model += c;
      }
    }
    const std::size_t start = model.find_first_not_of(' ');
    if (start != std::string::npos) return model.substr(start);
    break;
  }
  return "unknown";
}

/// Flat JSON object writer. Values must not need escaping (our keys and
/// values are identifiers, hex digests and numbers). Every object opens
/// with the measurement metadata: host, compiler, build_type and nproc.
class JsonWriter {
 public:
  JsonWriter() {
    String("host", HostCpuModel());
    String("compiler", CONNLAB_BENCH_COMPILER);
    String("build_type", CONNLAB_BENCH_BUILD_TYPE);
    Integer("nproc", std::thread::hardware_concurrency());
  }

  void Number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.push_back('"' + key + "\": " + buf);
  }
  void Integer(const std::string& key, unsigned long long value) {
    fields_.push_back('"' + key + "\": " + std::to_string(value));
  }
  void String(const std::string& key, const std::string& value) {
    fields_.push_back('"' + key + "\": \"" + value + '"');
  }
  void Bool(const std::string& key, bool value) {
    fields_.push_back('"' + key + (value ? "\": true" : "\": false"));
  }
  /// One Number per series: its median over the repetitions.
  void Medians(const Samples& samples) {
    for (const auto& series : samples.series()) {
      Number(series.first, samples.Median(series.first));
    }
  }

  [[nodiscard]] std::string Render() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += "  " + fields_[i];
      if (i + 1 < fields_.size()) out += ',';
      out += '\n';
    }
    out += "}\n";
    return out;
  }

  /// Writes the object to `path`; prints a note either way so CI logs show
  /// where the artifact landed.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench json: cannot open %s\n", path.c_str());
      return false;
    }
    const std::string text = Render();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    std::printf("bench json written to %s\n", path.c_str());
    return ok;
  }

 private:
  std::vector<std::string> fields_;
};

}  // namespace connlab::benchout
