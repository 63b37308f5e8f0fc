// Run manifest: one durable JSON record per training invocation.
//
// A run without a manifest is a black box once the process exits — there
// is no way to tie a result file to the seed, solver options, dataset,
// fault configuration, and convergence outcome that produced it, and no
// way to compare two runs mechanically. The manifest captures all of that
// in a single `run.json`, written by `plos_run --manifest-out` and by the
// benches via `bench_support` (PLOS_BENCH_MANIFEST).
//
// Determinism contract: every field outside the "timing" section derives
// from the run's configuration or its deterministic results (bitwise
// thread-count-independent per DESIGN.md §8), so for a fixed seed the
// manifest minus timing is byte-identical across thread counts. Real wall
// time, the simulated clock (which scales *measured* compute), and the
// thread count itself only affect speed, never results — they live in the
// "timing" section, which `manifest_to_json(..., include_timing=false)`
// omits and `plos_inspect diff/check` ignores by default.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace plos::obs {

/// Identity of the dataset a run trained on. `content_hash` is FNV-1a over
/// the raw sample bits, labels, and revealed flags (see
/// data::fingerprint); two runs with equal fingerprints trained on
/// identical data.
struct DatasetFingerprint {
  std::string name;              ///< generator name ("synth", "body", ...)
  std::size_t users = 0;
  std::size_t providers = 0;     ///< users with at least one revealed label
  std::size_t samples = 0;
  std::size_t dim = 0;
  double labeled_fraction = 0.0; ///< revealed / total samples
  std::uint64_t content_hash = 0;
};

struct RunManifest {
  // -- provenance ----------------------------------------------------------
  std::string tool;           ///< "plos_run", bench binary name, ...
  int schema_version = 1;
  std::string compiler;       ///< __VERSION__ of the building compiler
  std::string build_type;     ///< "release" / "debug" (from NDEBUG)

  // -- configuration -------------------------------------------------------
  std::uint64_t seed = 0;
  DatasetFingerprint dataset;
  /// Full solver options, rendered to stable strings ("%.17g" doubles).
  std::map<std::string, std::string> options;
  /// Fault-injection configuration; empty for fault-free runs.
  std::map<std::string, std::string> fault;

  // -- outcome -------------------------------------------------------------
  /// Final deterministic metrics: accuracies, rounds, iteration counts,
  /// final objective/residuals, byte totals, fault counters.
  std::map<std::string, double> results;
  std::string watchdog_verdict = "off";  ///< "off" | "ok" | "warn" | "abort"
  std::size_t watchdog_violations = 0;
  std::string watchdog_first_violation;  ///< empty when none fired

  // -- timing (excluded from the deterministic serialization) --------------
  int threads = 1;             ///< resolved worker-thread count
  double wall_seconds = 0.0;   ///< real end-to-end wall time
  /// Additional non-deterministic timings (simulated seconds, per-phase
  /// breakdowns).
  std::map<std::string, double> timing;
};

/// Fills compiler/build_type from the current build.
void fill_build_info(RunManifest& manifest);

/// Serializes the manifest as a single-line JSON object. With
/// include_timing = false the "timing" section (threads, wall time,
/// timing map) is omitted entirely — the deterministic core.
std::string manifest_to_json(const RunManifest& manifest,
                             bool include_timing = true);

/// Incremental FNV-1a 64-bit hasher for dataset/content fingerprints.
class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add_u64(std::uint64_t value);
  void add_double(double value);  ///< hashes the exact bit pattern
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 1469598103934665603ull;  // FNV offset basis
};

}  // namespace plos::obs
