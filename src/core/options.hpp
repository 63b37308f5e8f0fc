// Hyper-parameters and solver knobs shared by the PLOS trainers.
#pragma once

namespace plos::core {

/// The paper's three predefined parameters (§IV-A).
struct PlosHyperParams {
  /// λ: how strongly per-user hyperplanes are pulled toward the global one.
  /// Large λ → users share one hyperplane (All-like); small λ → independent
  /// per-user hyperplanes (Single-like).
  double lambda = 100.0;
  /// Cl: weight of labeled-sample hinge losses.
  double cl = 10.0;
  /// Cu: weight of unlabeled-sample (max-margin-clustering) losses.
  double cu = 1.0;
};

/// Cutting-plane working-set loop (§IV-B).
struct CuttingPlaneOptions {
  /// ε: stop when no constraint is violated by more than this.
  double epsilon = 1e-3;
  int max_iterations = 200;
};

/// CCCP outer loop.
struct CccpOptions {
  int max_iterations = 8;
  /// Stop when the relative objective change between consecutive CCCP
  /// iterations drops below this.
  double objective_tolerance = 1e-4;
};

}  // namespace plos::core
