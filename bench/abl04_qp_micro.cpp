// Ablation 4 — QP solver micro-benchmarks: capped-simplex projection and
// FISTA solve time vs problem size, plus the warm-start payoff that the
// cutting-plane loops rely on, the exact single-simplex solver on a
// device-shaped dual, and thread-count scaling of the end-to-end
// centralized trainer (serial-equivalent parallelism — only time moves).
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "qp/capped_simplex_qp.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"
#include "rng/engine.hpp"

namespace {

using namespace plos;

qp::CappedSimplexQpProblem random_problem(std::size_t n, std::size_t groups,
                                          std::uint64_t seed) {
  rng::Engine engine(seed);
  linalg::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = engine.gaussian();
  }
  qp::CappedSimplexQpProblem p;
  p.hessian = b.matmul(b.transposed());
  for (std::size_t i = 0; i < n; ++i) p.hessian(i, i) += 1.0;
  p.linear = engine.gaussian_vector(n);
  p.groups.assign(groups, {});
  for (std::size_t i = 0; i < n; ++i) p.groups[i % groups].push_back(i);
  p.caps.assign(groups, 0.5);
  return p;
}

void BM_Projection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Engine engine(n);
  const linalg::Vector base = engine.gaussian_vector(n, 0.5, 1.0);
  for (auto _ : state) {
    linalg::Vector x = base;
    qp::project_capped_simplex(x, 1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Projection)
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(8192)
    ->Apply(bench::bench_time_config);

void BM_QpSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = random_problem(n, std::max<std::size_t>(1, n / 16), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp::solve_capped_simplex_qp(p));
  }
}
BENCHMARK(BM_QpSolve)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::bench_time_config);

void BM_QpSolveWarmStarted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = random_problem(n, std::max<std::size_t>(1, n / 16), n);
  const auto cold = qp::solve_capped_simplex_qp(p);
  qp::QpOptions options;
  options.warm_start = cold.solution;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp::solve_capped_simplex_qp(p, options));
  }
}
BENCHMARK(BM_QpSolveWarmStarted)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::bench_time_config);

// Thread scaling of one full centralized CCCP run on a 20-user population.
// The per-user separation oracle and Hessian row assembly dominate, so
// wall-clock should drop roughly linearly until the core count is reached
// (on a multi-core host; with a single core the times simply match).
void BM_CentralizedCccpThreads(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = 30;
  spec.max_rotation = 1.2;
  rng::Engine engine(404);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 4, 8, 12, 16}, 0.3, engine);
  auto options = bench::bench_plos_options();
  options.cccp.max_iterations = 2;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::train_centralized_plos(dataset, options));
  }
}
BENCHMARK(BM_CentralizedCccpThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::bench_time_config);

// PLOS_BENCH_JSON mode: emit BENCH_abl04_qp_micro.json (QP micro-kernels)
// and BENCH_cccp_threads.json (the BM_CentralizedCccpThreads scaling
// sweep). Every counter is exact; in the cccp_threads suite the four
// thread-count cases must agree counter-for-counter — serial-equivalent
// parallelism is itself part of what the baseline gates.
void emit_bench_json() {
  bench::BenchSuite micro;
  micro.name = "abl04_qp_micro";
  {
    const std::size_t n = 8192;
    rng::Engine engine(n);
    const linalg::Vector base = engine.gaussian_vector(n, 0.5, 1.0);
    linalg::Vector projected = base;
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed([&] {
      projected = base;
      qp::project_capped_simplex(projected, 1.0);
    });
    std::size_t nonzeros = 0;
    for (std::size_t i = 0; i < projected.size(); ++i) {
      if (projected[i] != 0.0) ++nonzeros;
    }
    bench_case.counters["n"] = static_cast<double>(n);
    bench_case.counters["nonzeros"] = static_cast<double>(nonzeros);
    micro.cases["projection_n8192"] = bench_case;
  }
  {
    const std::size_t n = 256;
    const auto problem = random_problem(n, n / 16, n);
    // `matvecs` is H·x products per solve (power iteration included): the
    // exact work counter behind the solve's wall time.
    auto& registry = obs::metrics();
    const auto matvecs_per_solve = [&registry] {
      const double solves =
          registry.counter("qp.capped_simplex.solves").value();
      return solves > 0.0
                 ? registry.counter("qp.capped_simplex.matvecs").value() /
                       solves
                 : 0.0;
    };
    qp::QpResult result;
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed(
        [&] { result = qp::solve_capped_simplex_qp(problem); });
    // Timed with the registry off; one extra solve with it on reads the
    // counter.
    registry.set_enabled(true);
    registry.reset_values();
    qp::solve_capped_simplex_qp(problem);
    bench_case.counters["matvecs"] = matvecs_per_solve();
    registry.set_enabled(false);
    bench_case.counters["n"] = static_cast<double>(n);
    bench_case.counters["iterations"] = static_cast<double>(result.iterations);
    micro.cases["qp_solve_n256"] = bench_case;

    // Warm re-solve from the previous solution. The obs counters turn the
    // warm-start claim into exact gated evidence: every timed solve must
    // take the iteration-0 warm exit (warm_hit_rate == 1).
    qp::QpOptions warm_options;
    warm_options.warm_start = result.solution;
    qp::QpResult warm_result;
    bench::BenchCase warm_case;
    registry.set_enabled(true);
    registry.reset_values();
    warm_case.stats = bench::run_timed([&] {
      warm_result = qp::solve_capped_simplex_qp(problem, warm_options);
    });
    const double warm_solves =
        registry.counter("qp.capped_simplex.solves").value();
    const double warm_hits =
        registry.counter("qp.capped_simplex.warm_hits").value();
    const double warm_matvecs = matvecs_per_solve();
    registry.set_enabled(false);
    warm_case.counters["matvecs"] = warm_matvecs;
    warm_case.counters["n"] = static_cast<double>(n);
    warm_case.counters["iterations"] =
        static_cast<double>(warm_result.iterations);
    warm_case.counters["warm_hit_rate"] =
        warm_solves > 0.0 ? warm_hits / warm_solves : 0.0;
    micro.cases["qp_solve_warm_n256"] = warm_case;
  }
  {
    // Device-shaped dual (Eq. 22): 44 planes s_i in d = 3 with offset 1
    // at a random prox center p, so H = κ·S Sᵀ has rank 3 and
    // c_i = 1 − ⟨s_i, p⟩. The optimum holds rank + 1 = 4 planes.
    const std::size_t n = 44;
    const std::size_t dim = 3;
    rng::Engine engine(n);
    linalg::Matrix planes(n, dim);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < dim; ++j) planes(i, j) = engine.gaussian();
    }
    linalg::Matrix hessian = planes.row_gram();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) hessian(i, j) *= 1.1;
    }
    const linalg::Vector center = engine.gaussian_vector(dim, 0.0, 1.0);
    linalg::Vector linear = planes.matvec(center);
    for (double& c : linear) c = 1.0 - c;
    qp::QpResult result;
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed(
        [&] { result = qp::solve_simplex_qp(hessian, linear, 1.0); });
    bench_case.counters["n"] = static_cast<double>(n);
    bench_case.counters["pivots"] = static_cast<double>(result.iterations);
    micro.cases["simplex_exact_n44"] = bench_case;
  }
  bench::write_bench_suite(micro);

  bench::BenchSuite scaling;
  scaling.name = "cccp_threads";
  data::SyntheticSpec spec;
  spec.num_users = 20;
  spec.points_per_class = 30;
  spec.max_rotation = 1.2;
  rng::Engine engine(404);
  auto dataset = data::generate_synthetic(spec, engine);
  data::reveal_labels(dataset, {0, 4, 8, 12, 16}, 0.3, engine);
  for (const int threads : {1, 2, 4, 8}) {
    auto options = bench::bench_plos_options();
    options.cccp.max_iterations = 2;
    options.num_threads = threads;
    core::PlosDiagnostics diagnostics;
    bench::BenchCase bench_case;
    bench_case.stats = bench::run_timed([&] {
      diagnostics =
          core::train_centralized_plos(dataset, options).diagnostics;
    });
    bench_case.counters["cccp_rounds"] =
        static_cast<double>(diagnostics.cccp_iterations);
    bench_case.counters["qp_solves"] =
        static_cast<double>(diagnostics.qp_solves);
    bench_case.counters["constraints"] =
        static_cast<double>(diagnostics.final_constraint_count);
    scaling.cases["threads_" + std::to_string(threads)] = bench_case;
  }
  bench::write_bench_suite(scaling);
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::bench_json_enabled()) {
    emit_bench_json();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
