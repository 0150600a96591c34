// EXP-METRICS — overhead of the observability layer (src/util/metrics.h,
// src/util/trace.h). The layer's contract is "near-zero when off": a
// disabled instrumentation site costs one relaxed load plus a branch
// (or nothing at all under -DDD_METRICS_OFF), and an enabled counter
// increment is a single relaxed fetch_add on a thread-striped shard.
//
// After the google-benchmark run, main() times each primitive with a
// plain Stopwatch loop, subtracts the empty-loop baseline, and writes
// BENCH_metrics.json. Its metrics carry no bar: ci/bench_gate.py prints
// them beside the committed baseline.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_report.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {
namespace {

void BM_CounterAddEnabled(benchmark::State& state) {
  MetricsRegistry::SetEnabled(true);
  for (auto _ : state) {
    DD_COUNTER_ADD("bench.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddEnabled);

void BM_CounterAddDisabled(benchmark::State& state) {
  MetricsRegistry::SetEnabled(false);
  for (auto _ : state) {
    DD_COUNTER_ADD("bench.counter", 1);
  }
  MetricsRegistry::SetEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddDisabled);

void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry::SetEnabled(true);
  double v = 0.001;
  for (auto _ : state) {
    DD_HISTOGRAM_OBSERVE("bench.histogram", v);
    v = v < 1000.0 ? v * 1.001 : 0.001;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceSpan(benchmark::State& state) {
  MetricsRegistry::SetEnabled(true);
  RunMetrics::Reset();  // make room under Tracer::kMaxRecords
  for (auto _ : state) {
    DD_TRACE_SPAN("bench.span");
  }
  RunMetrics::Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan);

/// One Stopwatch-timed loop of `iters` calls to `op`; returns ns/op.
template <typename Op>
double TimeNs(uint64_t iters, Op op) {
  Stopwatch watch;
  for (uint64_t i = 0; i < iters; ++i) op(i);
  return watch.Seconds() * 1e9 / static_cast<double>(iters);
}

bool RunOverheadReport() {
  const uint64_t kOps = 20'000'000;
  const uint64_t kHistOps = 5'000'000;
  const uint64_t kSpanOps = 500'000;  // < Tracer::kMaxRecords per batch

#ifdef DD_METRICS_OFF
  const bool compiled_off = true;
#else
  const bool compiled_off = false;
#endif

  // Empty-loop baseline: the loop bookkeeping itself, subtracted from
  // every raw number below so a fully-compiled-away site reports ~0.
  volatile uint64_t sink = 0;
  const double baseline_ns = TimeNs(kOps, [&](uint64_t i) { sink = sink + i; });

  MetricsRegistry::SetEnabled(false);
  const double disabled_raw_ns = TimeNs(kOps, [&](uint64_t i) {
    sink = sink + i;
    DD_COUNTER_ADD("bench.report.counter", 1);
  });
  MetricsRegistry::SetEnabled(true);

  const double counter_raw_ns = TimeNs(kOps, [&](uint64_t i) {
    sink = sink + i;
    DD_COUNTER_ADD("bench.report.counter", 1);
  });
  const double gauge_raw_ns = TimeNs(kOps, [&](uint64_t i) {
    sink = sink + i;
    DD_GAUGE_SET("bench.report.gauge", static_cast<double>(i));
  });
  const double hist_raw_ns = TimeNs(kHistOps, [&](uint64_t i) {
    sink = sink + i;
    DD_HISTOGRAM_OBSERVE("bench.report.histogram",
                         static_cast<double>(i % 1024) * 1e-3);
  });
  RunMetrics::Reset();
  const double span_raw_ns = TimeNs(kSpanOps, [&](uint64_t i) {
    sink = sink + i;
    DD_TRACE_SPAN("bench.report.span");
  });
  RunMetrics::Reset();

  auto net = [&](double raw) { return raw > baseline_ns ? raw - baseline_ns : 0.0; };
  const double disabled_ns = net(disabled_raw_ns);
  const double counter_ns = net(counter_raw_ns);
  const double gauge_ns = net(gauge_raw_ns);
  const double hist_ns = net(hist_raw_ns);
  const double span_ns = net(span_raw_ns);

  std::printf("\n=== observability overhead (net of %.2f ns loop baseline) ===\n",
              baseline_ns);
  std::printf("compiled off: %s\n", compiled_off ? "yes (DD_METRICS_OFF)" : "no");
  std::printf("counter disabled: %.3f ns/op   enabled: %.3f ns/op\n", disabled_ns,
              counter_ns);
  std::printf("gauge set: %.3f ns/op   histogram observe: %.3f ns/op   "
              "trace span: %.1f ns/span\n",
              gauge_ns, hist_ns, span_ns);

  BenchReport report("bench_metrics", "EXP-METRICS overhead");
  report.Lower("loop_baseline_ns_per_op", baseline_ns, "ns");
  report.Lower("counter_disabled_ns_per_op", disabled_ns, "ns");
  report.Lower("counter_enabled_ns_per_op", counter_ns, "ns");
  report.Lower("gauge_set_ns_per_op", gauge_ns, "ns");
  report.Lower("histogram_observe_ns_per_op", hist_ns, "ns");
  report.Lower("trace_span_ns_per_span", span_ns, "ns");
  return report.Write("BENCH_metrics.json");
}

}  // namespace
}  // namespace dd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return dd::RunOverheadReport() ? 0 : 1;
}
