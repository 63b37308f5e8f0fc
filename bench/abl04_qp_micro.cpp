// Ablation 4 — QP solver micro-benchmarks: capped-simplex projection time
// vs problem size, the exact single-simplex solver on a device-shaped dual,
// and thread-count scaling of the end-to-end centralized trainer
// (serial-equivalent parallelism — only time moves).
#include <benchmark/benchmark.h>

#include "bench_support.hpp"
#include "data/labeling.hpp"
#include "data/synthetic.hpp"
#include "qp/projection.hpp"
#include "qp/simplex_qp.hpp"
#include "rng/engine.hpp"

namespace {

using namespace plos;

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

// Thread scaling of one full centralized CCCP run on a 20-user population.
// Only the per-user separation oracle and CCCP sign fitting run on the
// pool; the block-sweep dual solve is serial, so wall-clock drops only by
// the parallel share (on a multi-core host; with a single core the times
// simply match).
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
