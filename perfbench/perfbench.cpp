// ethsim_perfbench — end-to-end study benchmark for the simulator.
//
// One process runs one workload as a closed loop of studies: each study is
// config -> core::Experiment::Run -> results (collect, persist, reload,
// analyze) -> teardown, and the next study starts only when the previous one
// has finished. Everything is timed from outside the program, around its
// public calls; no simulator code is instrumented for this benchmark.
//
//   ethsim_perfbench --workload <fleet-1k|block-race|instrumented>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--out <dir>] [--digests <file>]
//                    [--commit <sha>] [--record <studies>]
//
// --trace 0 prints the end-to-end metrics (means over the run's study seeds
// of each seed's best study; setup_s is a median);
// --trace 1 runs one untraced and one traced study of the same seed and
// prints the per-layer metrics, writing the span log under --out. The last
// stdout line is always one JSON object: correct, attempted, failed, metrics.
// The exit code is nonzero when any correctness check failed. See README.md
// in this directory for the workloads and the layer -> end-to-end map.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/commit.hpp"
#include "analysis/dissemination.hpp"
#include "analysis/empty_blocks.hpp"
#include "analysis/forks.hpp"
#include "analysis/geo.hpp"
#include "analysis/interblock.hpp"
#include "analysis/latency_stages.hpp"
#include "analysis/ordering.hpp"
#include "analysis/propagation.hpp"
#include "analysis/redundancy.hpp"
#include "analysis/report.hpp"
#include "analysis/rewards.hpp"
#include "analysis/sequences.hpp"
#include "core/experiment.hpp"
#include "core/provenance.hpp"
#include "measure/dataset.hpp"
#include "net/geo.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "spans.hpp"

namespace fs = std::filesystem;
using namespace ethsim;
using perfbench::NowSeconds;
using perfbench::SpanLog;
using perfbench::Timed;
using Scope = perfbench::SpanLog::Scope;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t nodes = 0;   // plain nodes; +40 pool gateways +4 vantages
  Duration duration;       // simulated time per study
  double tx_rate = 0;      // legacy workload, tx/s network-wide
  bool recorders = false;  // metrics + provenance + txprov + sampler
  // Passes of the results step per study; the study's results_s is the
  // fastest. One pass takes a few tenths of a second, and passes of the same
  // study differ by up to a third, so the fastest of several is steadier.
  int results_passes = 1;
  // Times each of the run's study seeds is studied; a seed's figures are the
  // best of its studies. With one round the run closes with a repeat of its
  // first seed, so that every run checks its own determinism.
  int rounds = 1;
};

// Full size first, smoke size second: the same code path, seconds to run.
const std::vector<std::pair<Workload, Workload>>& Workloads() {
  static const std::vector<std::pair<Workload, Workload>> table = {
      {{"fleet-1k", 1000, Duration::Seconds(60), 2.0, false, 7, 1},
       {"fleet-1k", 150, Duration::Minutes(1), 2.0, false, 2, 1}},
      {{"block-race", 60, Duration::Minutes(90), 0.02, false, 9, 5},
       {"block-race", 60, Duration::Minutes(20), 0.02, false, 2, 2}},
      {{"instrumented", 80, Duration::Minutes(10), 0.5, true, 7, 5},
       {"instrumented", 40, Duration::Minutes(3), 0.5, true, 2, 2}},
  };
  return table;
}

// Studies of one run use distinct seeds derived from the workload seed, so a
// run's figures average over several inputs.
std::uint64_t StudySeed(std::uint64_t seed, std::uint64_t k) {
  return seed * 1000 + k;
}

enum class Instruments { kOff, kRecorders, kTraced };

core::ExperimentConfig MakeConfig(const Workload& wl, std::uint64_t seed,
                                  Instruments instruments) {
  core::ExperimentConfig cfg = core::presets::SmallStudy(wl.nodes);
  cfg.seed = seed;
  cfg.duration = wl.duration;
  cfg.workload.rate_per_sec = wl.tx_rate;
  cfg.telemetry = obs::TelemetryConfig{};
  if (instruments != Instruments::kOff && wl.recorders) {
    cfg.telemetry.metrics = true;
    cfg.telemetry.provenance = true;
    cfg.telemetry.txprov = true;
    cfg.telemetry.sample = true;
  }
  // The traced study adds the record-only counters and the engine profiler;
  // neither changes the event order, so its digest equals the untraced one.
  if (instruments == Instruments::kTraced) {
    cfg.telemetry.metrics = true;
    cfg.telemetry.profile = true;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------------

// Resets the kernel's peak-RSS watermark so the next reading covers one
// study only. Freed heap is returned first so the previous study's pages do
// not count against the next one.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

double DirectoryMb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string FormatFixed(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Recorded determinism digests (digests.tsv: workload, study seed, digest)
// ---------------------------------------------------------------------------

using DigestTable =
    std::map<std::pair<std::string, std::uint64_t>, std::string>;

bool LoadDigests(const std::string& path, DigestTable* out,
                 std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = path + ": cannot open";
    return false;
  }
  std::string line;
  int n = 0;
  while (std::getline(f, line)) {
    ++n;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string workload, digest;
    std::uint64_t seed = 0;
    if (!(row >> workload >> seed >> digest) || digest.size() != 64) {
      *error = path + ": malformed record at line " + std::to_string(n);
      return false;
    }
    (*out)[{workload, seed}] = digest;
  }
  return true;
}

// Key under which a workload size's digests are recorded.
std::string DigestKey(const Workload& wl, bool smoke) {
  return smoke ? wl.name + "/smoke" : wl.name;
}

// ---------------------------------------------------------------------------
// One study
// ---------------------------------------------------------------------------

// Every per-layer metric, in print order. A workload that does not run a
// layer reports 0 for it.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kPerLayer[] = {
    {"core.setup_s", "s"},
    {"core.run_s", "s"},
    {"core.results_s", "s"},
    {"core.teardown_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.callback_s", "s"},
    {"sim.engine_s", "s"},
    {"sim.heap_high_water", "count"},
    {"sim.slots_allocated", "count"},
    {"net.msgs.new_block", "count"},
    {"net.bytes.new_block", "bytes"},
    {"net.msgs.announcement", "count"},
    {"net.bytes.announcement", "bytes"},
    {"net.msgs.get_block", "count"},
    {"net.bytes.get_block", "bytes"},
    {"net.msgs.block_response", "count"},
    {"net.bytes.block_response", "bytes"},
    {"net.msgs.transactions", "count"},
    {"net.bytes.transactions", "bytes"},
    {"net.dropped", "count"},
    {"eth.tx.received", "count"},
    {"eth.block.imported", "count"},
    {"eth.peer_links", "count"},
    {"eth.known_entries", "count"},
    {"chain.blocks", "count"},
    {"chain.orphans", "count"},
    {"chain.txpool.size", "count"},
    {"miner.blocks_found", "count"},
    {"workload.submitted", "count"},
    {"measure.block_arrivals", "count"},
    {"measure.tx_arrivals", "count"},
    {"measure.collect_s", "s"},
    {"measure.dataset_write_s", "s"},
    {"measure.dataset_read_s", "s"},
    {"analysis.block_propagation_s", "s"},
    {"analysis.tx_propagation_s", "s"},
    {"analysis.per_vantage_tx_delay_s", "s"},
    {"analysis.first_observation_s", "s"},
    {"analysis.pool_first_observation_s", "s"},
    {"analysis.commit_times_s", "s"},
    {"analysis.ordering_s", "s"},
    {"analysis.empty_blocks_s", "s"},
    {"analysis.sequences_s", "s"},
    {"analysis.redundancy_s", "s"},
    {"analysis.fork_census_s", "s"},
    {"analysis.one_miner_forks_s", "s"},
    {"analysis.revenue_s", "s"},
    {"analysis.interblock_s", "s"},
    {"analysis.render_s", "s"},
    {"analysis.dissemination.hops_s", "s"},
    {"analysis.dissemination.first_delivery_s", "s"},
    {"analysis.dissemination.waste_s", "s"},
    {"analysis.dissemination.redundancy_s", "s"},
    {"analysis.latency_stages_s", "s"},
    {"obs.recorder_s", "s"},
    {"obs.write_s", "s"},
    {"obs.read_s", "s"},
    {"obs.edges", "count"},
    {"obs.tx_stages", "count"},
    {"obs.violations", "count"},
    {"trace.overhead", "ratio"},
};

using LayerValues = std::map<std::string, double>;

struct StudyResult {
  std::uint64_t seed = 0;
  double run_s = 0;
  double results_s = 0;
  std::vector<double> results_passes;  // every pass of the results step
  double teardown_s = 0;
  double wall_s = 0;
  double sim_rate = 0;
  double peak_rss_mb = 0;
  double output_mb = 0;
  std::string digest;
  std::vector<std::string> failures;
  // Counts read from the program; filled by the traced study only.
  LayerValues layers;
};

struct Context {
  Workload wl;
  std::string digest_key;
  const DigestTable* recorded = nullptr;
  fs::path out_dir;
  int next_dir = 0;
};

// Everything an analysis pass over one set of observers produces, rendered to
// text so a live pass and a reloaded pass can be compared exactly.
std::string AnalyzeStudy(SpanLog& spans, const analysis::StudyInputs& inputs,
                         const analysis::StudyInputs& catalog_inputs) {
  const analysis::ObserverSet& obs = inputs.observers;
  std::string text;
  const auto blocks = Timed(spans, "analysis.block_propagation", [&] {
    return analysis::BlockPropagationDelays(obs);
  });
  const auto txs = Timed(spans, "analysis.tx_propagation",
                         [&] { return analysis::TxPropagationDelays(obs); });
  const auto tx_rows = Timed(spans, "analysis.per_vantage_tx_delay",
                             [&] { return analysis::PerVantageTxDelay(obs); });
  const auto geo = Timed(spans, "analysis.first_observation",
                         [&] { return analysis::FirstObservationShares(obs); });
  const auto pool_geo = Timed(spans, "analysis.pool_first_observation", [&] {
    return analysis::PoolFirstObservation(catalog_inputs);
  });
  const auto commit = Timed(spans, "analysis.commit_times", [&] {
    return analysis::TransactionCommitTimes(inputs);
  });
  const auto ordering = Timed(spans, "analysis.ordering", [&] {
    return analysis::TransactionOrdering(inputs);
  });
  const auto empty = Timed(spans, "analysis.empty_blocks",
                           [&] { return analysis::EmptyBlockCensus(inputs); });
  const auto sequences = Timed(spans, "analysis.sequences", [&] {
    return analysis::ConsecutiveMinerSequences(inputs);
  });
  const auto redundancy = Timed(spans, "analysis.redundancy", [&] {
    std::vector<analysis::RedundancyResult> rows;
    for (const auto* o : obs)
      rows.push_back(analysis::BlockReceptionRedundancy(*o));
    return rows;
  });
  const auto forks = Timed(spans, "analysis.fork_census",
                           [&] { return analysis::ComputeForkCensus(inputs); });
  const auto one_miner = Timed(spans, "analysis.one_miner_forks", [&] {
    return analysis::ComputeOneMinerForks(inputs, forks);
  });
  const auto revenue = Timed(spans, "analysis.revenue", [&] {
    return analysis::ComputeRevenue(inputs);
  });
  const auto interblock = Timed(spans, "analysis.interblock", [&] {
    return analysis::InterBlockTimes(inputs);
  });

  Scope render(spans, "analysis.render");
  text += analysis::RenderFig1(blocks, txs, tx_rows);
  text += analysis::RenderFig2(geo);
  text += analysis::RenderFig3(pool_geo);
  text += analysis::RenderFig4(commit);
  text += analysis::RenderFig5(ordering);
  text += analysis::RenderFig6(empty);
  text += analysis::RenderFig7(sequences);
  for (const auto& row : redundancy)
    text += analysis::RenderTable2(row, obs.size());
  text += analysis::RenderTable3(forks, one_miner);
  text += "revenue " + FormatNumber(revenue.total_eth) + " " +
          FormatNumber(revenue.one_miner_uncle_eth) + " " +
          FormatNumber(revenue.fees_share_of_total) + "\n";
  text += "interblock " + FormatNumber(interblock.mean_s) + " " +
          FormatNumber(interblock.median_s) + " " +
          std::to_string(interblock.blocks) + "\n";
  return text;
}

std::uint64_t CounterValue(const obs::MetricsRegistry* metrics,
                           const std::string& name) {
  const obs::Counter* c =
      metrics != nullptr ? metrics->FindCounter(name) : nullptr;
  return c != nullptr ? c->value() : 0;
}

// Counts the program already exposes, read after the traced study's run.
void CollectLayerCounts(const core::Experiment& exp, LayerValues* out) {
  const auto add = [out](const std::string& name, double v) {
    (*out)[name] = v;
  };
  const obs::MetricsRegistry* metrics =
      exp.telemetry() != nullptr ? exp.telemetry()->metrics() : nullptr;
  const obs::EngineSnapshot engine = exp.simulator().Snapshot();
  add("sim.events", static_cast<double>(exp.simulator().events_executed()));
  add("sim.heap_high_water", static_cast<double>(engine.heap_high_water));
  add("sim.slots_allocated", static_cast<double>(engine.slots_allocated));

  for (const obs::MsgKind kind :
       {obs::MsgKind::kNewBlock, obs::MsgKind::kAnnouncement,
        obs::MsgKind::kGetBlock, obs::MsgKind::kBlockResponse,
        obs::MsgKind::kTransactions}) {
    const std::string_view k = obs::MsgKindName(kind);
    add("net.msgs." + std::string(k),
        static_cast<double>(CounterValue(
            metrics, obs::LabeledName("net.msg.sent", {{"kind", k}}))));
    add("net.bytes." + std::string(k),
        static_cast<double>(CounterValue(
            metrics, obs::LabeledName("net.msg.sent_bytes", {{"kind", k}}))));
  }
  add("net.dropped", static_cast<double>(exp.network().messages_dropped()));

  std::uint64_t tx_received = 0, imported = 0;
  for (const net::Region region : net::AllRegions()) {
    const std::string_view r = net::RegionShortName(region);
    tx_received +=
        CounterValue(metrics,
                     obs::LabeledName("eth.tx.received", {{"region", r}}));
    imported += CounterValue(
        metrics, obs::LabeledName("eth.block.imported", {{"region", r}}));
  }
  std::uint64_t peer_links = 0, known = 0, blocks = 0, orphans = 0, pooled = 0;
  for (const auto& node : exp.nodes()) {
    peer_links += node->peer_count();
    known += node->known_cache_entries();
    blocks += node->tree().block_count();
    orphans += node->tree().orphan_count();
    pooled += node->pool().size();
  }
  add("eth.tx.received", static_cast<double>(tx_received));
  add("eth.block.imported", static_cast<double>(imported));
  add("eth.peer_links", static_cast<double>(peer_links));
  add("eth.known_entries", static_cast<double>(known));
  add("chain.blocks", static_cast<double>(blocks));
  add("chain.orphans", static_cast<double>(orphans));
  add("chain.txpool.size", static_cast<double>(pooled));
  add("miner.blocks_found",
      static_cast<double>(exp.coordinator().blocks_found()));
  add("workload.submitted",
      static_cast<double>(exp.workload().total_submitted()));

  std::uint64_t block_arrivals = 0, tx_arrivals = 0;
  for (const auto& o : exp.observers()) {
    block_arrivals += o->block_arrivals().size();
    tx_arrivals += o->tx_arrivals().size();
  }
  add("measure.block_arrivals", static_cast<double>(block_arrivals));
  add("measure.tx_arrivals", static_cast<double>(tx_arrivals));
}

// What one pass of the results step leaves for the checks.
struct ResultsPass {
  double seconds = 0;
  std::string text;  // analysis of the reloaded dataset, rendered
  std::size_t vantages = 0;
  std::size_t catalog_rows = 0;
  // Records read back from the recorder artifacts (recorders on).
  std::size_t edges = 0;
  std::size_t tx_stages = 0;
  std::size_t samples = 0;
  std::vector<std::string> failures;
};

// The paper's collect -> persist -> reload -> analyze path over a finished
// experiment, writing under `dir`; with recorders on, also the read-back of
// the binary artifacts and the ethsim_inspect analyses.
ResultsPass RunResults(SpanLog& spans, const core::Experiment& exp,
                       const core::ExperimentConfig& cfg, const fs::path& dir) {
  ResultsPass pass;
  const auto fail = [&pass](std::string why) {
    pass.failures.push_back(std::move(why));
  };
  Scope results(spans, "results");
  const fs::path dataset_dir = dir / "dataset";
  const fs::path artifact_dir = dir / "artifacts";
  measure::Dataset collected;
  {
    Scope collect(spans, "measure.collect");
    for (const auto& o : exp.observers())
      collected.vantages.push_back(measure::SnapshotObserver(*o));
    collected.catalog = measure::BuildCatalog(exp.minted(), cfg.pools);
  }
  std::string error;
  {
    Scope write(spans, "measure.dataset_write");
    if (!measure::WriteDataset(dataset_dir.string(), collected, &error))
      fail("dataset write: " + error);
  }
  {
    Scope write(spans, "obs.write");
    if (!core::WriteRunArtifacts(exp, artifact_dir.string(),
                                 "ethsim_perfbench", &error))
      fail("run artifacts: " + error);
  }
  measure::Dataset loaded;
  sim::Simulator replay_clock;
  std::vector<std::unique_ptr<measure::Observer>> replayed;
  chain::BlockArena catalog_arena;
  std::vector<miner::MintRecord> catalog_minted;
  {
    Scope read(spans, "measure.dataset_read");
    if (!measure::ReadDataset(dataset_dir.string(), loaded, &error))
      fail("dataset read: " + error);
    for (const auto& v : loaded.vantages)
      replayed.push_back(measure::ReplayObserver(v, replay_clock));
    catalog_minted = measure::ReconstructMintRecords(
        catalog_arena, loaded.catalog, cfg.pools);
  }
  pass.vantages = loaded.vantages.size();
  pass.catalog_rows = loaded.catalog.size();
  analysis::StudyInputs reloaded;
  for (const auto& o : replayed) reloaded.observers.push_back(o.get());
  reloaded.minted = &exp.minted();
  reloaded.pools = &cfg.pools;
  reloaded.reference = &exp.reference_tree();
  analysis::StudyInputs reloaded_catalog = reloaded;
  reloaded_catalog.minted = &catalog_minted;
  pass.text = AnalyzeStudy(spans, reloaded, reloaded_catalog);

  const obs::Telemetry* telemetry = exp.telemetry();
  if (telemetry != nullptr && telemetry->provenance() != nullptr) {
    obs::ProvenanceLog provenance;
    obs::TxProvLog txprov;
    obs::TimeSeriesLog timeseries;
    {
      Scope read(spans, "obs.read");
      const auto read_bin = [&](const char* file, auto* out) {
        if (!std::remove_pointer_t<decltype(out)>::ReadBinary(
                (artifact_dir / file).string(), out, &error))
          fail(std::string(file) + ": " + error);
      };
      read_bin("provenance.bin", &provenance);
      read_bin("txprov.bin", &txprov);
      read_bin("timeseries.bin", &timeseries);
    }
    Timed(spans, "analysis.dissemination.hops",
          [&] { return analysis::HopDepths(provenance); });
    Timed(spans, "analysis.dissemination.first_delivery",
          [&] { return analysis::FirstDeliveryBreakdown(provenance); });
    Timed(spans, "analysis.dissemination.waste",
          [&] { return analysis::WasteByHost(provenance); });
    Timed(spans, "analysis.dissemination.redundancy", [&] {
      std::vector<analysis::RedundancyResult> rows;
      for (const auto& o : exp.observers())
        rows.push_back(
            analysis::RedundancyFromProvenance(provenance, o->node()->host()));
      return rows;
    });
    Timed(spans, "analysis.latency_stages",
          [&] { return analysis::DecomposeLatencyStages(txprov); });
    pass.edges = provenance.size();
    pass.tx_stages = txprov.size();
    pass.samples = timeseries.sample_count();
  }
  pass.seconds = results.Close();
  return pass;
}

// Runs one study. `traced` adds the record-only counters, the engine
// profiler and a setup span; spans are recorded only when `spans` is enabled.
// The results step runs the workload's results_passes times; the first pass
// counts toward wall_s and is the one the checks and output_mb look at.
StudyResult RunStudy(Context& ctx, std::uint64_t seed, bool traced,
                     SpanLog& spans) {
  const Workload& wl = ctx.wl;
  StudyResult r;
  r.seed = seed;
  const auto fail = [&r](std::string why) {
    r.failures.push_back(std::move(why));
  };
  const fs::path dir = ctx.out_dir / (wl.name + "-" + std::to_string(getpid()) +
                                      "-" + std::to_string(ctx.next_dir++));
  std::error_code ec;
  fs::remove_all(dir, ec);

  if (!ResetPeakRss()) fail("cannot reset the peak-RSS watermark");
  const Instruments instruments =
      traced ? Instruments::kTraced : Instruments::kRecorders;
  core::ExperimentConfig cfg = MakeConfig(wl, seed, instruments);

  try {
    Scope study(spans, "study");
    if (traced) {
      core::ExperimentConfig zero = cfg;
      zero.duration = Duration::Seconds(0);
      core::Experiment setup_exp{zero};
      Scope setup(spans, "setup");
      setup_exp.Run();
    }

    const double t0 = NowSeconds();
    auto exp = std::make_unique<core::Experiment>(cfg);
    {
      Scope run(spans, "run");
      exp->Run();
      r.run_s = run.Close();
    }
    ResultsPass first = RunResults(spans, *exp, cfg, dir / "pass-0");
    const double results_end = NowSeconds();
    r.output_mb = DirectoryMb(dir);
    fs::remove_all(dir, ec);
    for (auto& why : first.failures) fail(std::move(why));

    // --- checks (untimed): digest, reload == live, recorder invariants.
    {
      Scope check(spans, "check");
      r.digest = ToHex(core::DeterminismDigest(*exp));
      const auto recorded = ctx.recorded->find({ctx.digest_key, seed});
      if (recorded != ctx.recorded->end() && recorded->second != r.digest)
        fail("determinism digest " + r.digest + " != recorded " +
             recorded->second);
      if (exp->simulator().events_executed() == 0) fail("no events executed");
      if (first.vantages != exp->observers().size() ||
          first.catalog_rows != exp->minted().size())
        fail("reloaded dataset size differs from the live observers");

      analysis::StudyInputs live;
      for (const auto& o : exp->observers()) live.observers.push_back(o.get());
      live.minted = &exp->minted();
      live.pools = &cfg.pools;
      live.reference = &exp->reference_tree();
      SpanLog untimed(false);
      if (AnalyzeStudy(untimed, live, live) != first.text)
        fail("analysis of the reloaded dataset differs from the live "
             "observers");

      const obs::Telemetry* telemetry = exp->telemetry();
      const bool recorders =
          telemetry != nullptr && telemetry->provenance() != nullptr;
      if (recorders) {
        const obs::ProvenanceRecorder* prov = telemetry->provenance();
        const obs::TxProvRecorder* txprov = telemetry->txprov();
        const obs::StateSampler* sampler = telemetry->sampler();
        if (prov->violations() != 0 || txprov->violations() != 0)
          fail("recorder invariant violations: provenance " +
               std::to_string(prov->violations()) + ", txprov " +
               std::to_string(txprov->violations()));
        if (first.edges != prov->edges_recorded() ||
            first.tx_stages != txprov->records_recorded() ||
            first.samples != sampler->sample_count())
          fail("artifact read-back counts differ from the recorders");
      }
      if (traced) {
        CollectLayerCounts(*exp, &r.layers);
        r.layers["sim.callback_s"] =
            telemetry->profiler()->callback_total_ns() * 1e-9;
        if (recorders) {
          r.layers["obs.edges"] = static_cast<double>(first.edges);
          r.layers["obs.tx_stages"] = static_cast<double>(first.tx_stages);
          r.layers["obs.violations"] =
              static_cast<double>(telemetry->provenance()->violations() +
                                  telemetry->txprov()->violations());
        }
      }
    }

    // --- further results passes, each checked against the first; traced as
    // one span, their inner calls untraced.
    std::vector<double>& results_s = r.results_passes;
    results_s.push_back(first.seconds);
    SpanLog untraced(false);
    Scope repeats(spans, "results.repeats");
    for (int k = 1; k < wl.results_passes; ++k) {
      const ResultsPass again =
          RunResults(untraced, *exp, cfg, dir / ("pass-" + std::to_string(k)));
      fs::remove_all(dir, ec);
      results_s.push_back(again.seconds);
      for (const auto& why : again.failures)
        fail("results pass " + std::to_string(k) + ": " + why);
      if (again.text != first.text || again.edges != first.edges ||
          again.tx_stages != first.tx_stages || again.samples != first.samples)
        fail("results pass " + std::to_string(k) + " differs from the first");
    }
    r.results_s = *std::min_element(results_s.begin(), results_s.end());
    repeats.Close();

    {
      Scope teardown(spans, "teardown");
      exp.reset();
      r.teardown_s = teardown.Close();
    }
    r.wall_s = (results_end - t0) + r.teardown_s;
    r.sim_rate = wl.duration.seconds() / r.run_s;
  } catch (const std::exception& e) {
    fail(std::string("exception: ") + e.what());
  }
  r.peak_rss_mb = PeakRssMb();
  fs::remove_all(dir, ec);
  return r;
}

// Host seconds to build the overlay: a zero-duration Run of the study's
// config (its teardown is not timed). Returns the run's digest in `digest`.
double MeasureSetup(const Workload& wl, std::uint64_t seed,
                    std::string* digest) {
  core::ExperimentConfig cfg = MakeConfig(wl, seed, Instruments::kRecorders);
  cfg.duration = Duration::Seconds(0);
  core::Experiment exp{cfg};
  const double t0 = NowSeconds();
  exp.Run();
  const double seconds = NowSeconds() - t0;
  *digest = ToHex(core::DeterminismDigest(exp));
  return seconds;
}

// Host seconds of Run with every recorder off (the obs.recorder_s baseline).
double MeasureRecordersOffRun(const Workload& wl, std::uint64_t seed) {
  core::Experiment exp{MakeConfig(wl, seed, Instruments::kOff)};
  const double t0 = NowSeconds();
  exp.Run();
  return NowSeconds() - t0;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void PrintFailures(const StudyResult& r) {
  for (const auto& f : r.failures)
    std::printf("CHECK FAILED (study seed %llu): %s\n",
                static_cast<unsigned long long>(r.seed), f.c_str());
}

void PrintResultLine(bool correct, int attempted, int failed,
                     const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            FormatNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_build/run";
  std::string digests = "perfbench/digests.tsv";
  std::string commit;  // empty: the sha the build was configured at
  int record = 0;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ethsim_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--out <dir>] [--digests <file>] [--commit <sha>] "
               "[--record <studies>]\n",
               why);
  return 2;
}

// End-to-end run: a closed loop of studies for the requested seconds. The
// run picks its study seeds in the first round and studies each of them
// `rounds` times, round after round; a seed's figures are the best of its
// studies, and each metric is the mean over the seeds. The host's speed
// drifts by tens of percent over seconds, so the best of a seed's studies,
// taken at different moments of the run, is steadier than any one of them.
// Every repeat must reproduce the seed's digests.
int RunMeasured(Context& ctx, const Options& opt) {
  const Workload& wl = ctx.wl;
  const int rounds = std::max(1, wl.rounds);
  // Studies in a run of `seeds` seeds, the closing repeat included.
  const auto planned = [rounds](std::size_t seeds) {
    return rounds * seeds + (rounds == 1 ? 1 : 0);
  };
  int attempted = 0, failed = 0;
  const double start = NowSeconds();

  // Each study is preceded by a setup measurement of its own config, so the
  // setup samples are spread over the whole run like the studies are.
  SpanLog untraced(false);
  std::vector<double> setup_s;
  std::vector<std::string> setup_digests;
  std::vector<StudyResult> studies;
  const auto setup_and_study = [&](std::uint64_t seed) {
    ++attempted;
    std::string digest;
    try {
      setup_s.push_back(MeasureSetup(wl, seed, &digest));
    } catch (const std::exception& e) {
      std::printf("CHECK FAILED (setup, study seed %llu): %s\n",
                  static_cast<unsigned long long>(seed), e.what());
      ++failed;
    }
    setup_digests.push_back(digest);
    studies.push_back(RunStudy(ctx, seed, false, untraced));
  };

  // First round: at least three seeds; more while the whole run with one
  // more seed still fits in the requested seconds. The second round (or the
  // closing repeat) is always complete; later rounds stop when the next
  // study would overrun.
  std::size_t seeds = 0;
  do {
    setup_and_study(StudySeed(opt.seed, seeds++));
  } while (seeds < 3 || (NowSeconds() - start) / seeds * planned(seeds + 1) <=
                            opt.seconds);
  for (int round = 1; round < rounds; ++round)
    for (std::size_t i = 0; i < seeds; ++i) {
      const double elapsed = NowSeconds() - start;
      if (round > 1 && elapsed * (studies.size() + 1) / studies.size() >
                           opt.seconds)
        break;
      setup_and_study(studies[i].seed);
    }
  if (rounds == 1) setup_and_study(studies.front().seed);

  // Determinism within the run: every repeat gives its seed's digests.
  for (std::size_t j = seeds; j < studies.size(); ++j) {
    const std::size_t i = j % seeds;
    if (setup_digests[j] != setup_digests[i]) {
      std::printf("CHECK FAILED (setup): repeat of study seed %llu changed "
                  "its zero-duration digest\n",
                  static_cast<unsigned long long>(studies[i].seed));
      ++failed;
    }
    if (studies[j].digest != studies[i].digest)
      studies[j].failures.push_back("repeat of seed " +
                                    std::to_string(studies[i].seed) +
                                    " changed its determinism digest");
  }

  for (const auto& s : studies) {
    ++attempted;
    if (!s.failures.empty()) ++failed;
    PrintFailures(s);
    std::string passes;
    for (const double p : s.results_passes) {
      if (!passes.empty()) passes += ' ';
      passes += FormatFixed(p);
    }
    std::printf("study seed %llu: wall %.3f s (run %.3f, results %.3f [%s], "
                "teardown %.3f), %.1f MB peak, %.3f MB out, digest %s\n",
                static_cast<unsigned long long>(s.seed), s.wall_s, s.run_s,
                s.results_s, passes.c_str(), s.teardown_s, s.peak_rss_mb,
                s.output_mb, s.digest.substr(0, 16).c_str());
  }

  // Best of each seed's studies, then the mean over the seeds.
  std::vector<double> wall, rate, rss, results, output;
  for (std::size_t i = 0; i < seeds; ++i) {
    StudyResult best = studies[i];
    for (std::size_t j = i + seeds; j < studies.size(); j += seeds) {
      const StudyResult& s = studies[j];
      best.wall_s = std::min(best.wall_s, s.wall_s);
      best.sim_rate = std::max(best.sim_rate, s.sim_rate);
      best.peak_rss_mb = std::min(best.peak_rss_mb, s.peak_rss_mb);
      best.results_s = std::min(best.results_s, s.results_s);
      best.output_mb = std::min(best.output_mb, s.output_mb);
    }
    wall.push_back(best.wall_s);
    rate.push_back(best.sim_rate);
    rss.push_back(best.peak_rss_mb);
    results.push_back(best.results_s);
    output.push_back(best.output_mb);
  }

  const std::vector<Metric> metrics = {
      {"wall_s", "s", Mean(wall)},
      {"setup_s", "s", Median(setup_s)},
      {"sim_rate", "sim_s/s", Mean(rate)},
      {"peak_rss_mb", "MB", Mean(rss)},
      {"results_s", "s", Mean(results)},
      {"output_mb", "MB", Mean(output)},
  };
  std::printf("%s: %zu studies of %zu seeds, means over the seeds' best "
              "studies, median of %zu setup runs, %.1f s measured\n",
              wl.name.c_str(), studies.size(), seeds, setup_s.size(),
              NowSeconds() - start);
  for (const auto& m : metrics)
    std::printf("  %-12s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  PrintResultLine(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

void WriteSpans(const fs::path& path, const SpanLog& spans,
                const std::string& fingerprint) {
  std::ofstream f(path);
  f << "{\"fingerprint\": " << fingerprint << ",\n \"spans\": [";
  const double origin = spans.spans().empty() ? 0 : spans.spans()[0].start_s;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& s = spans.spans()[i];
    f << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
      << ", \"name\": " << JsonString(s.name) << ", \"parent\": " << s.parent
      << ", \"start_s\": " << FormatNumber(s.start_s - origin)
      << ", \"end_s\": " << FormatNumber(s.end_s - origin)
      << ", \"self_s\": " << FormatNumber(spans.SelfSeconds(i)) << "}";
  }
  f << "\n]}\n";
}

// Traced run: one untraced study, the same seed traced, and (with recorders)
// a recorders-off run of the same config. Prints the per-layer metrics.
int RunTraced(Context& ctx, const Options& opt,
              const std::string& fingerprint) {
  const Workload& wl = ctx.wl;
  const std::uint64_t seed = StudySeed(opt.seed, 0);
  SpanLog off(false);
  const StudyResult plain = RunStudy(ctx, seed, false, off);
  SpanLog spans(true);
  StudyResult traced = RunStudy(ctx, seed, true, spans);
  if (traced.digest != plain.digest)
    traced.failures.push_back("traced digest differs from the untraced run");
  int attempted = 2;
  int failed =
      (plain.failures.empty() ? 0 : 1) + (traced.failures.empty() ? 0 : 1);
  PrintFailures(plain);
  PrintFailures(traced);
  double recorder_s = 0;
  if (wl.recorders) {
    ++attempted;
    try {
      recorder_s = plain.run_s - MeasureRecordersOffRun(wl, seed);
    } catch (const std::exception& e) {
      std::printf("CHECK FAILED (recorders-off run): %s\n", e.what());
      ++failed;
    }
  }

  // Span totals give the layer timings: "<span>_s" for every span name.
  LayerValues values = traced.layers;
  for (const auto& span : spans.spans())
    values[span.name + "_s"] += span.duration_s();
  values["core.setup_s"] = values["setup_s"];
  values["core.run_s"] = values["run_s"];
  values["core.results_s"] = values["results_s"];
  values["core.teardown_s"] = values["teardown_s"];
  values["sim.events_per_s"] = values["sim.events"] / values["run_s"];
  values["sim.engine_s"] =
      values["run_s"] - values["setup_s"] - values["sim.callback_s"];
  values["obs.recorder_s"] = recorder_s;
  values["trace.overhead"] = traced.wall_s / plain.wall_s;
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : kPerLayer)
    metrics.push_back({spec.name, spec.unit, values[spec.name]});

  std::error_code ec;
  fs::create_directories(ctx.out_dir, ec);
  const fs::path span_file =
      ctx.out_dir /
      ("spans-" + wl.name + "-seed" + std::to_string(opt.seed) + ".json");
  WriteSpans(span_file, spans, fingerprint);

  std::printf("%s traced study (seed %llu): wall %.3f s traced vs %.3f s "
              "untraced; spans in %s\n",
              wl.name.c_str(), static_cast<unsigned long long>(seed),
              traced.wall_s, plain.wall_s, span_file.c_str());
  std::printf("  %-44s %12s %12s\n", "span", "total_s", "self_s");
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& s = spans.spans()[i];
    int depth = 0;
    for (int p = s.parent; p >= 0; p = spans.spans()[p].parent) ++depth;
    std::printf("  %*s%-*s %12.6f %12.6f\n", 2 * depth, "", 44 - 2 * depth,
                s.name.c_str(), s.duration_s(), spans.SelfSeconds(i));
  }
  for (const auto& m : metrics)
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  PrintResultLine(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr)
      return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (arg == "--out") {
      opt.out = v;
    } else if (arg == "--digests") {
      opt.digests = v;
    } else if (arg == "--commit") {
      opt.commit = v;
    } else if (arg == "--record") {
      opt.record = std::atoi(v);

    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return Usage("--workload is required");

  Context ctx;
  bool found = false;
  for (const auto& [full, smoke] : Workloads())
    if (full.name == opt.workload) {
      ctx.wl = opt.smoke ? smoke : full;
      found = true;
    }
  if (!found) return Usage(("unknown workload " + opt.workload).c_str());
  ctx.digest_key = DigestKey(ctx.wl, opt.smoke);
  ctx.out_dir = opt.out;

  DigestTable recorded;
  std::string error;
  if (!LoadDigests(opt.digests, &recorded, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  ctx.recorded = &recorded;
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "error: cannot reset the peak-RSS watermark "
                         "(/proc/self/clear_refs)\n");
    return 2;
  }

  const obs::BuildInfo build = obs::CurrentBuild();
  const std::string fingerprint =
      "{\"cpu\": " + JsonString(CpuModel()) +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"compiler\": " + JsonString(build.compiler) +
      ", \"build_type\": " + JsonString(build.build_type) +
      ", \"commit\": " +
      JsonString(opt.commit.empty() ? build.git_sha : opt.commit) + "}";
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("workload %s%s: %zu plain nodes, %s simulated per study, "
              "%.2f tx/s, recorders %s\n",
              ctx.wl.name.c_str(), opt.smoke ? " (smoke)" : "", ctx.wl.nodes,
              FormatDuration(ctx.wl.duration).c_str(), ctx.wl.tx_rate,
              ctx.wl.recorders ? "on" : "off");

  // Digest recording: run the first `record` studies of the seed and print
  // digests.tsv rows.
  if (opt.record > 0) {
    SpanLog off(false);
    for (int k = 0; k < opt.record; ++k) {
      const StudyResult r = RunStudy(ctx, StudySeed(opt.seed, k), false, off);
      PrintFailures(r);
      std::printf("%s\t%llu\t%s\n", ctx.digest_key.c_str(),
                  static_cast<unsigned long long>(r.seed), r.digest.c_str());
    }
    return 0;
  }
  return opt.trace ? RunTraced(ctx, opt, fingerprint) : RunMeasured(ctx, opt);
}
