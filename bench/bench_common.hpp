// Shared infrastructure for the table/figure benchmark harnesses.
//
// Scaling: the paper's graphs have 1e8-5e8 edges and ran on a 40-core
// 256 GB machine. The harnesses default to ~1e6-edge instances so the whole
// suite finishes in minutes on a laptop; set PCC_SCALE (a float multiplier,
// default 1.0) to grow or shrink every input, and PCC_TRIALS to change the
// median-of-k trial count (default 3, as in the paper).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pcc.hpp"

namespace pcc::bench {

inline double scale_factor() {
  const char* s = std::getenv("PCC_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline int num_trials() {
  const char* s = std::getenv("PCC_TRIALS");
  if (s == nullptr) return 3;
  const int v = std::atoi(s);
  return v > 0 ? v : 3;
}

inline size_t scaled(size_t base) {
  return std::max<size_t>(16, static_cast<size_t>(base * scale_factor()));
}

// The paper's six inputs (Table 1), at bench scale. `line` keeps its
// defining property (diameter = n - 1); rMat2 and com-Orkut keep their
// edge-to-vertex ratios (~400 and ~38).
struct named_graph {
  std::string name;
  graph::graph g;
};

inline std::vector<named_graph> paper_graph_suite() {
  // PCC_GRAPH=path replaces the synthetic suite with a real input file
  // (any format load_graph understands), so the harnesses can reproduce
  // the paper's numbers on the actual SNAP graphs when they are on disk.
  if (const char* path = std::getenv("PCC_GRAPH"); path != nullptr) {
    std::vector<named_graph> suite;
    suite.push_back({path, graph::load_graph(path)});
    return suite;
  }
  const size_t base = scaled(100000);
  std::vector<named_graph> suite;
  suite.push_back({"random", graph::random_graph(base, 5, 101)});
  suite.push_back({"rMat", graph::rmat_graph(base, 5 * base, 102,
                                             {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back(
      {"rMat2", graph::rmat_graph(std::max<size_t>(base / 25, 64),
                                  400 * std::max<size_t>(base / 25, 64), 103,
                                  {.a = 0.5, .b = 0.1, .c = 0.1})});
  suite.push_back({"3D-grid", graph::grid3d_graph(base, true, 104)});
  suite.push_back({"line", graph::line_graph(5 * base, false)});
  suite.push_back(
      {"com-Orkut-sim", graph::social_network_like(std::max<size_t>(base / 6, 64), 105)});
  return suite;
}

// Median + min of k wall-clock timings of fn(), in seconds (the paper
// reports the median of three trials; the min is the noise floor).
struct time_stats {
  double median_s = 0;
  double min_s = 0;
  int reps = 0;
};

inline time_stats time_stats_of(const std::function<void()>& fn,
                                int trials_override = 0) {
  const int trials = trials_override > 0 ? trials_override : num_trials();
  std::vector<double> times(trials);
  for (int t = 0; t < trials; ++t) {
    parallel::timer timer;
    fn();
    times[t] = timer.elapsed();
  }
  std::sort(times.begin(), times.end());
  return {times[trials / 2], times[0], trials};
}

// Median-of-k wall-clock time of fn() in seconds.
inline double median_time(const std::function<void()>& fn,
                          int trials_override = 0) {
  return time_stats_of(fn, trials_override).median_s;
}

// ---------------------------------------------------------------------------
// Machine-readable results: every harness can dump its measurements as JSON
// (results/BENCH_<name>.json) so the perf trajectory is tracked across
// commits. One record per (kernel, graph, threads) tuple — each row
// carries the worker count it was measured under (plus the fixed
// scheduler tag), so one file can hold a whole thread sweep; the top-level
// "threads" field is only the global worker count at write time (kept for
// older consumers). PCC_BENCH_JSON overrides the output path;
// PCC_BENCH_JSON=off suppresses the file.

struct bench_record {
  std::string kernel;  // kernel / implementation name
  std::string graph;   // input id ("random", "n=16384", ...)
  time_stats stats;
  // Registered cc::algorithm behind the row (for "auto" rows, the
  // selector's pick). Left empty for rows with no registry algorithm
  // behind them — micro kernels, primitives — and OMITTED from the JSON
  // then (it used to default to `kernel`, which made the field a lie for
  // every micro row).
  std::string algorithm;
  // Worker count the row was measured under. Defaulted from the global
  // state at record creation so existing aggregate-initialized rows stay
  // correct; thread-sweep harnesses set it explicitly per configuration.
  int threads = parallel::num_workers();
  // Locality relabeling the input was under when measured (reorder_name
  // spelling; "none" unless the harness relabeled the graph).
  std::string reorder = "none";
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

inline void write_bench_json(const std::string& default_path,
                             const std::string& bench_name,
                             const std::vector<bench_record>& records) {
  std::string path = default_path;
  if (const char* p = std::getenv("PCC_BENCH_JSON"); p != nullptr) path = p;
  if (path.empty() || path == "off") return;
  std::error_code ec;  // best-effort: a bench run must not die on mkdir
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"threads\": %d,\n",
               json_escape(bench_name).c_str(), parallel::num_workers());
  // Build provenance (injected by bench/CMakeLists.txt) keeps the perf
  // trajectory comparable across PRs: every result file says which
  // commit, compiler, and flags produced it.
#ifndef PCC_BENCH_GIT_SHA
#define PCC_BENCH_GIT_SHA "unknown"
#endif
#ifndef PCC_BENCH_COMPILER
#define PCC_BENCH_COMPILER "unknown"
#endif
#ifndef PCC_BENCH_CXX_FLAGS
#define PCC_BENCH_CXX_FLAGS ""
#endif
  std::fprintf(f, "  \"git_sha\": \"%s\",\n  \"compiler\": \"%s\",\n",
               json_escape(PCC_BENCH_GIT_SHA).c_str(),
               json_escape(PCC_BENCH_COMPILER).c_str());
  std::fprintf(f, "  \"cxx_flags\": \"%s\",\n",
               json_escape(PCC_BENCH_CXX_FLAGS).c_str());
  std::fprintf(f, "  \"scale\": %.6g,\n  \"entries\": [\n", scale_factor());
  for (size_t i = 0; i < records.size(); ++i) {
    const bench_record& r = records[i];
    std::string algorithm_field;
    if (!r.algorithm.empty()) {
      algorithm_field =
          "\"algorithm\": \"" + json_escape(r.algorithm) + "\", ";
    }
    // "backend" is a fixed scheduler tag (OpenMP is the only scheduler);
    // it stays so rows keep joining against committed baselines.
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"graph\": \"%s\", %s"
                 "\"threads\": %d, \"backend\": \"openmp\", "
                 "\"reorder\": \"%s\", "
                 "\"median_s\": %.9g, \"min_s\": %.9g, \"reps\": %d}%s\n",
                 json_escape(r.kernel).c_str(), json_escape(r.graph).c_str(),
                 algorithm_field.c_str(), r.threads,
                 json_escape(r.reorder).c_str(),
                 r.stats.median_s, r.stats.min_s, r.stats.reps,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench: wrote %s (%zu entries)\n", path.c_str(),
               records.size());
}

// All connectivity implementations, ours and baselines, keyed by the names
// used in Table 2 of the paper; `algorithm` is the cc::algorithm registry
// name the row resolves to.
struct cc_impl {
  std::string name;
  std::string algorithm;
  bool parallel;  // false for serial-SF (no parallel column)
  std::function<std::vector<vertex_id>(const graph::graph&)> run;
};

// A registry entry as a vector-returning closure. Each impl owns one
// algo_workspace shared across every graph and trial, so the timed region
// excludes transient allocation after the first (warm-up) trial — the
// measurement the paper's repeated-trials protocol wants.
inline std::function<std::vector<vertex_id>(const graph::graph&)>
registry_runner(const std::string& algorithm) {
  const cc::algorithm* algo = cc::find_algorithm(algorithm);
  if (algo == nullptr) {
    std::fprintf(stderr, "bench: unknown algorithm %s\n", algorithm.c_str());
    std::abort();
  }
  return [algo, ws = std::make_shared<cc::algo_workspace>()](
             const graph::graph& g) {
    cc::cc_options opt;
    opt.beta = 0.2;
    std::vector<vertex_id> labels(g.num_vertices());
    cc::run_algorithm(*algo, g, opt, *ws, labels);
    return labels;
  };
}

inline std::vector<cc_impl> table2_implementations() {
  const auto row = [](const char* name, const char* algorithm, bool parallel) {
    return cc_impl{name, algorithm, parallel, registry_runner(algorithm)};
  };
  return {
      row("serial-SF", "serial-sf", false),
      row("decomp-arb-CC", "decomp-arb", true),
      row("decomp-arb-hybrid-CC", "decomp-arb-hybrid", true),
      row("decomp-min-CC", "decomp-min", true),
      row("parallel-SF-PBBS", "parallel-sf-pbbs", true),
      row("parallel-SF-PRM", "parallel-sf-prm", true),
      row("hybrid-BFS-CC", "hybrid-bfs", true),
      row("multistep-CC", "multistep", true),
  };
}

// Run fn with the given worker count.
inline double timed_with_threads(int threads,
                                 const std::function<void()>& fn) {
  parallel::scoped_workers guard(threads);
  return median_time(fn);
}

// Thread counts for scaling sweeps: every count up to min(4, ncores), the
// powers of two up to max(4, ncores), and ncores itself — so 1..ncores is
// covered geometrically with exact endpoints, and a 1-2 core host still
// produces multi-thread rows (oversubscribed, but labeled by their real
// `threads` value; the JSON never lies about what ran).
// PCC_SWEEP_THREADS="1,2,8" overrides the list; a malformed list is
// rejected with a diagnostic and the default is used instead.
inline std::vector<int> sweep_thread_counts() {
  std::vector<int> counts;
  if (const char* s = std::getenv("PCC_SWEEP_THREADS")) {
    const char* p = s;
    bool ok = *p != '\0';
    while (ok && *p != '\0') {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(p, &end, 10);
      if (end == p || errno == ERANGE || v < 1 || v > 1024 ||
          (*end != '\0' && *end != ',')) {
        ok = false;
        break;
      }
      counts.push_back(static_cast<int>(v));
      p = *end == ',' ? end + 1 : end;
    }
    if (!ok || counts.empty()) {
      std::fprintf(stderr,
                   "bench: ignoring invalid PCC_SWEEP_THREADS=\"%s\" "
                   "(expected comma-separated integers in [1, 1024])\n",
                   s);
      counts.clear();
    }
  }
  if (counts.empty()) {
    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    for (int t = 1; t <= std::min(4, hw); ++t) counts.push_back(t);
    for (int t = 1; t <= std::max(4, hw); t *= 2) counts.push_back(t);
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Honour PCC_THREADS (overrides the default worker count).
inline void apply_thread_env() {
  const char* s = std::getenv("PCC_THREADS");
  if (s != nullptr) {
    const int t = std::atoi(s);
    if (t > 0) parallel::set_num_workers(t);
  }
}

inline void print_header(const std::string& title) {
  apply_thread_env();
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(PCC_SCALE=%.3g, trials=%d, threads=%d)\n", scale_factor(),
              num_trials(), parallel::num_workers());
  std::printf("================================================================\n");
}

}  // namespace pcc::bench
