// Google-benchmark microbenchmarks: throughput of the substrate pieces
// (frequency-oracle perturbation/aggregation, subset sampling, mechanism
// steps, the parallel evaluation engine) so regressions in the hot paths
// are visible.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstring>

#include "analysis/runner.h"
#include "core/factory.h"
#include "datagen/synthetic.h"
#include "fo/client.h"
#include "fo/fo_kernels.h"
#include "fo/frequency_oracle.h"
#include "fo/report_arena.h"
#include "fo/wire.h"
#include "fo/wire_internal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "transport/frame.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/sampling.h"
#include "util/thread_pool.h"

namespace {

using namespace ldpids;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextU64());
}
BENCHMARK(BM_RngNextU64);

void BM_SampleBinomial(benchmark::State& state) {
  Rng rng(2);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(SampleBinomial(rng, n, 0.3));
}
BENCHMARK(BM_SampleBinomial)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_GrrClientPerturb(benchmark::State& state) {
  GrrClient client(3);
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(v, 1.0, d));
    v = (v + 1) % d;
  }
}
BENCHMARK(BM_GrrClientPerturb)->Arg(2)->Arg(32)->Arg(1024);

void BM_FoCohortRound(benchmark::State& state) {
  // One full collection round in cohort mode: the per-timestamp cost of a
  // budget-division mechanism.
  const std::string name = state.range(0) == 0   ? "GRR"
                           : state.range(0) == 1 ? "OUE"
                                                 : "OLH";
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const auto& fo = GetFrequencyOracle(name);
  Rng rng(4);
  Counts cohort(d, 200000 / d);
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    sketch->AddCohort(cohort, rng);
    benchmark::DoNotOptimize(sketch->Estimate());
  }
  state.SetLabel(name + "/d=" + std::to_string(d));
}
BENCHMARK(BM_FoCohortRound)
    ->Args({0, 2})
    ->Args({0, 117})
    ->Args({1, 117})
    ->Args({2, 117});

void BM_FoPerUserRound(benchmark::State& state) {
  // The same round with exact per-user simulation, for comparison.
  const auto& fo = GetFrequencyOracle("GRR");
  Rng rng(5);
  const std::size_t d = 16;
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    for (uint64_t u = 0; u < n; ++u) {
      sketch->AddUser(static_cast<uint32_t>(u % d), rng);
    }
    benchmark::DoNotOptimize(sketch->Estimate());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FoPerUserRound)->Arg(1000)->Arg(100000);

void BM_FoIngestPerUser(benchmark::State& state) {
  // Per-user ingestion cost of one oracle at domain d: the exact client
  // protocol plus server-side folding, one user at a time. For OLH this is
  // the path whose O(d) support scan the batched entry point kills.
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const auto& fo = GetFrequencyOracle(name);
  Rng rng(7);
  const uint64_t n = 2000;
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    for (uint64_t u = 0; u < n; ++u) {
      sketch->AddUser(static_cast<uint32_t>(u % d), rng);
    }
    benchmark::DoNotOptimize(sketch->Estimate());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(name + "/d=" + std::to_string(d));
}
BENCHMARK(BM_FoIngestPerUser)
    ->Args({0, 1024})   // GRR
    ->Args({2, 1024})   // OLH: the O(n*d) scan being replaced
    ->Args({2, 4096});  // OLH at larger domain

void BM_FoIngestBatched(benchmark::State& state) {
  // The same ingestion through the adaptive AddUsers batch entry point,
  // which switches to O(d) cohort-style binomial/multinomial sampling.
  // items_per_second here vs BM_FoIngestPerUser is the batched-vs-per-user
  // speedup the trajectory tracks (>= 10x at d >= 1024 for OLH).
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const auto& fo = GetFrequencyOracle(name);
  Rng rng(8);
  const uint64_t n = 2000;
  std::vector<uint32_t> values(n);
  for (uint64_t u = 0; u < n; ++u) values[u] = static_cast<uint32_t>(u % d);
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    sketch->AddUsers(values, rng);
    benchmark::DoNotOptimize(sketch->Estimate());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(name + "/d=" + std::to_string(d));
}
BENCHMARK(BM_FoIngestBatched)
    ->Args({0, 1024})
    ->Args({2, 1024})
    ->Args({2, 4096});

void BM_ArenaDecode(benchmark::State& state) {
  // Columnar staging cost: batch-decode one round's packets into the
  // ReportArena's SoA columns (envelope validation, checksum, payload
  // repack) without folding anything. items/sec is packets/sec.
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const OracleId oracle = OracleIdFromName(name);
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const std::size_t n = 2000;
  Rng rng(21);
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back(PerturbToWire(oracle, static_cast<uint32_t>(i % d),
                                    1.0, d, 0, i + 1, rng));
  }
  ReportArena arena;
  for (auto _ : state) {
    arena.BeginRound(oracle, 0, {1.0, d});
    arena.AppendBatch(packets);
    benchmark::DoNotOptimize(arena.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(name + "/d=" + std::to_string(d));
}
BENCHMARK(BM_ArenaDecode)
    ->Args({0, 64})     // GRR
    ->Args({0, 1024})
    ->Args({1, 1024})   // OUE: payload scales with d
    ->Args({1, 4096})
    ->Args({2, 1024})   // OLH
    ->Args({4, 1024});  // HR

// Plain-scalar reference of the wire checksum (same recurrence, no SIMD):
// the baseline BM_WireChecksum compares the vectorized fo/wire.cc kernel
// against. Parity with WireChecksum is pinned by wire_fuzz_test; the setup
// below still cross-checks once so the two benches never time different
// functions.
uint32_t ScalarWireChecksum(const uint8_t* data, std::size_t size) {
  using namespace ldpids::wire_internal;
  uint64_t lanes[4] = {kChecksumSeed0 ^ static_cast<uint64_t>(size),
                       kChecksumSeed1, kChecksumSeed2, kChecksumSeed3};
  for (std::size_t off = 0; off < size; off += 32) {
    uint8_t block[32] = {};
    std::memcpy(block, data + off,
                size - off < 32 ? size - off : std::size_t{32});
    for (std::size_t j = 0; j < 4; ++j) {
      uint64_t word;
      std::memcpy(&word, block + 8 * j, 8);
      lanes[j] = Mix64(lanes[j] ^ word);
    }
  }
  const uint64_t folded = static_cast<uint64_t>(size) ^ lanes[0] ^
                          std::rotl(lanes[1], 17) ^ std::rotl(lanes[2], 34) ^
                          std::rotl(lanes[3], 51);
  return static_cast<uint32_t>(Mix64(folded));
}

void BM_WireChecksum(benchmark::State& state) {
  // One checksum over `size` bytes at byte offset `misalign` from a fresh
  // allocation: arg 0 sweeps packet-sized through bulk inputs, arg 1
  // exercises the unaligned loads every real packet position hits inside a
  // batch buffer. bytes/sec is the headline; compare against
  // BM_WireChecksumScalar at the same args for the SIMD win.
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const std::size_t misalign = static_cast<std::size_t>(state.range(1));
  const bool scalar = state.range(2) != 0;
  std::vector<uint8_t> buf(size + misalign + 64);
  Rng rng(0xC0FFEE ^ size);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  const uint8_t* data = buf.data() + misalign;
  if (ScalarWireChecksum(data, size) != WireChecksum(data, size)) {
    state.SkipWithError("scalar reference diverged from WireChecksum");
    return;
  }
  if (scalar) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ScalarWireChecksum(data, size));
    }
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(WireChecksum(data, size));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
  state.SetLabel(std::string(scalar ? "scalar" : fokernels::BackendName()) +
                 "/size=" + std::to_string(size) +
                 "/misalign=" + std::to_string(misalign));
}
BENCHMARK(BM_WireChecksum)
    ->Args({24, 0, 0})    // GRR packet, aligned
    ->Args({24, 0, 1})
    ->Args({151, 0, 0})   // OUE/SUE packet at d=1024
    ->Args({151, 0, 1})
    ->Args({151, 3, 0})   // unaligned packet position in a batch buffer
    ->Args({151, 3, 1})
    ->Args({4096, 0, 0})  // bulk (amortizes setup/finalizer entirely)
    ->Args({4096, 0, 1});

void BM_VerifyChecksums(benchmark::State& state) {
  // Batched checksum verification over a run of uniform-size packets — the
  // decode-plane entry ReportArena and FrameDecoder funnel through. arg 1
  // toggles the baseline: a per-packet WireChecksum loop over the same
  // packets. The gap is the 8-packet-wide AVX-512 batch win (zero on
  // machines without it, where VerifyChecksums degrades to the loop).
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const bool serial = state.range(1) != 0;
  const std::size_t n = 1024;
  Rng rng(0xBA7C4 ^ size);
  std::vector<std::vector<uint8_t>> packets(n);
  std::vector<const uint8_t*> datas(n);
  std::vector<std::size_t> sizes(n, size);
  std::vector<uint8_t> ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets[i].resize(size);
    for (auto& b : packets[i]) b = static_cast<uint8_t>(rng.NextU64());
    const uint32_t sum = WireChecksum(packets[i].data(), size - 4);
    std::memcpy(packets[i].data() + size - 4, &sum, 4);
    datas[i] = packets[i].data();
  }
  if (serial) {
    for (auto _ : state) {
      for (std::size_t i = 0; i < n; ++i) {
        uint32_t stored;
        std::memcpy(&stored, datas[i] + size - 4, 4);
        ok[i] = WireChecksum(datas[i], size - 4) == stored ? 1 : 0;
      }
      benchmark::DoNotOptimize(ok.data());
    }
  } else {
    for (auto _ : state) {
      VerifyChecksums(datas.data(), sizes.data(), n, ok.data());
      benchmark::DoNotOptimize(ok.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(std::string(serial ? "per-packet" : "batched") +
                 "/size=" + std::to_string(size));
}
BENCHMARK(BM_VerifyChecksums)
    ->Args({24, 0})   // GRR packets
    ->Args({24, 1})
    ->Args({151, 0})  // OUE/SUE packets at d=1024
    ->Args({151, 1});

void BM_FrameRoundTrip(benchmark::State& state) {
  // Full transport framing loop: encode one round's report packets into a
  // byte stream, then reassemble and checksum-verify every frame through
  // FrameDecoder (pooled blocks, batched verification). items/sec is
  // frames/sec for the whole round trip.
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const OracleId oracle = OracleIdFromName(name);
  const std::size_t d = 1024;
  const std::size_t n = 512;
  Rng rng(23);
  std::vector<transport::Frame> frames;
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back(transport::MakeDataFrame(
        7, 0,
        PayloadRef(PerturbToWire(oracle, static_cast<uint32_t>(i % d), 1.0, d,
                                 0, i + 1, rng))));
  }
  std::vector<uint8_t> encoded;
  transport::FrameDecoder decoder;
  transport::Frame out;
  for (auto _ : state) {
    encoded.clear();
    for (const transport::Frame& frame : frames) {
      transport::AppendEncodedFrame(frame, &encoded);
    }
    decoder.Append(encoded);
    std::size_t delivered = 0;
    while (decoder.Next(&out)) ++delivered;
    if (delivered != n) {
      state.SkipWithError("frame loss in round trip");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
  state.SetLabel(name + "/d=" + std::to_string(d));
}
BENCHMARK(BM_FrameRoundTrip)
    ->Arg(0)   // GRR: 25-byte packets, framing overhead dominated
    ->Arg(1)   // OUE: 151-byte packets
    ->Arg(2);  // OLH

void BM_FoKernel(benchmark::State& state) {
  // Vectorized fold + estimate over pre-staged arena rows: the pure
  // server-side kernel cost (FoSketch::AddReports + EstimateInto), with
  // decode and dedup factored out. items/sec is reports/sec.
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const OracleId oracle = OracleIdFromName(name);
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const std::size_t n = 2000;
  Rng rng(22);
  std::vector<std::vector<uint8_t>> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back(PerturbToWire(oracle, static_cast<uint32_t>(i % d),
                                    1.0, d, 0, i + 1, rng));
  }
  ReportArena arena;
  arena.BeginRound(oracle, 0, {1.0, d});
  arena.AppendBatch(packets);
  std::vector<uint32_t> indices(arena.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<uint32_t>(i);
  }
  const ArenaSlice slice{&arena, indices.data(), indices.size()};
  const auto& fo = GetFrequencyOracle(name);
  Histogram est;
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    sketch->AddReports(slice);
    sketch->EstimateInto(&est);
    benchmark::DoNotOptimize(est.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(name + "/d=" + std::to_string(d) + "/backend=" +
                 fokernels::BackendName());
}
BENCHMARK(BM_FoKernel)
    ->Args({0, 64})     // GRR
    ->Args({0, 1024})
    ->Args({0, 4096})
    ->Args({1, 64})     // OUE bit columns
    ->Args({1, 1024})
    ->Args({1, 4096})
    ->Args({2, 64})     // OLH support scan
    ->Args({2, 1024})
    ->Args({2, 4096})
    ->Args({4, 64})     // HR column histogram + FWHT
    ->Args({4, 1024})
    ->Args({4, 4096});

void BM_FoOracleThroughput(benchmark::State& state) {
  // Sustained oracle ingestion throughput (users/sec) for every oracle at a
  // paper-sized timestamp: 100k users over a categorical domain, through
  // the adaptive batch path.
  static const std::vector<std::string> kNames = AllFrequencyOracleNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const std::size_t d = 117;
  const auto& fo = GetFrequencyOracle(name);
  Rng rng(9);
  const uint64_t n = 100000;
  std::vector<uint32_t> values(n);
  for (uint64_t u = 0; u < n; ++u) values[u] = static_cast<uint32_t>(u % d);
  for (auto _ : state) {
    auto sketch = fo.CreateSketch({1.0, d});
    sketch->AddUsers(values, rng);
    benchmark::DoNotOptimize(sketch->Estimate());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(name + "/d=117");
}
BENCHMARK(BM_FoOracleThroughput)->DenseRange(0, 4);

void BM_EvaluateMechanismThreads(benchmark::State& state) {
  // Engine scaling: one EvaluateMechanism cell (8 repetitions of LPA over a
  // per-user-simulated Sin stream) at 1..8 threads. Outputs are bit-identical
  // across the sweep; wall-clock per iteration is the scaling curve, and the
  // 1-thread / 8-thread ratio is the engine speedup the trajectory tracks.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const auto data = MakeSinDataset(20000, 60, 0.05, 11);
  data->TrueStream();  // warm the count cache outside the timed region
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 20;
  config.per_user_simulation = true;  // heavy, O(N*T) per repetition
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateMechanism(*data, "LPA", config, 8, threads));
  }
  state.SetLabel("threads=" + std::to_string(threads));
}
BENCHMARK(BM_EvaluateMechanismThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PoolSampling(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = 1000000;
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<uint32_t> pool;
  for (auto _ : state) {
    state.PauseTiming();
    pool.resize(n);
    for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<uint32_t>(i);
    state.ResumeTiming();
    benchmark::DoNotOptimize(SampleFromPool(rng, &pool, m));
  }
}
BENCHMARK(BM_PoolSampling)->Arg(1000)->Arg(25000);

void BM_MechanismStep(benchmark::State& state) {
  // Steady-state per-timestamp cost of each mechanism at paper scale
  // (N = 200k binary LNS, w = 20).
  static const std::vector<std::string> kNames = AllMechanismNames();
  const std::string name = kNames[static_cast<std::size_t>(state.range(0))];
  const auto data = MakeLnsDataset(200000, 400);
  MechanismConfig config;
  config.epsilon = 1.0;
  config.window = 20;
  // Warm the histogram cache so we measure the mechanism, not the dataset.
  for (std::size_t t = 0; t < data->length(); ++t) data->TrueCounts(t);
  auto mechanism = CreateMechanism(name, config, data->num_users());
  std::size_t t = 0;
  for (auto _ : state) {
    if (t >= data->length()) {
      state.PauseTiming();
      mechanism = CreateMechanism(name, config, data->num_users());
      t = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(mechanism->Step(*data, t++));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_MechanismStep)->DenseRange(0, 6);

// --- src/obs/ hot-path overhead -------------------------------------------
// These pin the cost of the metrics primitives the serving layer pays per
// event: one relaxed fetch_add per counter hit, three per histogram
// observation, plus one steady_clock read per stage-event endpoint. A
// regression here is a regression on every instrumented hot path.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("bm_total");
  for (auto _ : state) {
    counter.Add(1);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.GetHistogram("bm_ns");
  uint64_t v = 1;
  for (auto _ : state) {
    hist.Observe(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 16;  // vary buckets
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsStageEmit(benchmark::State& state) {
  // What one instrumented pipeline stage costs per round: two NowNs clock
  // reads plus one StageSink::Emit. Arg 0 feeds the stage histogram only;
  // Arg 1 also records the event on a flight-recorder track.
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  obs::StageSink sink(&registry, "bm",
                      state.range(0) != 0 ? &recorder : nullptr);
  uint64_t round = 0;
  for (auto _ : state) {
    const uint64_t t0 = obs::NowNs();
    sink.Emit({obs::Stage::kMerge, round++, t0, obs::NowNs()});
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(0) != 0 ? "histogram+recorder" : "histogram");
}
BENCHMARK(BM_ObsStageEmit)->Arg(0)->Arg(1);

void BM_ObsRegistrySnapshot(benchmark::State& state) {
  // Scrape cost at a realistic registry size (the live_service socket run
  // registers ~60 series): what a Prometheus poll pays, off the hot path.
  obs::MetricsRegistry registry;
  for (int i = 0; i < 48; ++i) {
    registry.GetCounter("bm_c_total", {{"i", std::to_string(i)}}).Add(i);
  }
  for (int i = 0; i < 16; ++i) {
    registry.GetHistogram("bm_h_ns", {{"i", std::to_string(i)}}).Observe(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Snapshot());
  }
}
BENCHMARK(BM_ObsRegistrySnapshot);

}  // namespace

BENCHMARK_MAIN();
