// tpch_parallel: the 22 TPC-H query analogs in a fixed order, one at a time,
// on the morsel-parallel engine at dop 4 (fewer on a machine with fewer
// CPUs) with bees on and a warm cache.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bee/native_jit.h"
#include "exec/analyze.h"
#include "harness.h"
#include "workloads/tpch/tpch_queries.h"

namespace perfbench {

namespace {

constexpr double kSf = 0.05;
/// Set-ups timed before the passes (the last is the measured database) and
/// after the checks: two clusters some 20 s apart, so a brief disturbance
/// of the machine moves the median set-up time less.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
/// Far larger than SF 0.05 (about 6k pages): every page stays cached.
constexpr size_t kPoolFrames = 32768;

DatabaseOptions BeeOptions(const std::string& dir) {
  DatabaseOptions o;
  o.dir = dir;
  o.enable_bees = true;
  o.enable_tuple_bees = true;
  o.backend = bee::BeeBackend::kNative;
  o.buffer_pool_frames = kPoolFrames;
  o.dop = UpToCpus(4);
  o.batch_rows = 0;
  return o;
}

/// The stock twin that computes the expected rows: bees off, dop 1, scalar.
DatabaseOptions StockOptions(const std::string& dir) {
  DatabaseOptions o;
  o.dir = dir;
  o.buffer_pool_frames = kPoolFrames;
  return o;
}

/// One pass of the 22 queries.
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double build_s = 0;
  uint64_t failed = 0;
  std::vector<Rows> rows;  // per query (index q-1)
};

/// Per-pass figures folded out of the traced passes.
struct TracedPass {
  std::vector<std::shared_ptr<trace::Trace>> traces;
  double operator_self_ns = 0;  // QueryStats: inclusive minus children
};

Pass RunPass(Database* db, int dop, TracedPass* traced) {
  Pass pass;
  pass.rows.resize(tpch::kNumTpchQueries);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    auto ctx = db->MakeContext(db->DefaultSession(), dop);
    std::shared_ptr<trace::Trace> tr;
    QueryStats qs;
    uint32_t root = 0;
    if (traced != nullptr) {
      tr = db->tracer()->StartForced();
      root = tr->Begin(0, trace::SpanKind::kStatement,
                       "q" + std::to_string(q));
      ctx->set_trace(trace::TraceContext{tr.get(), root});
      ctx->set_analyze(&qs);
    }
    const double b0 = NowSeconds();
    const uint32_t build_span =
        tr ? tr->Begin(root, trace::SpanKind::kPlan, "exec:build") : 0;
    auto plan = tpch::BuildTpchQuery(q, ctx.get());
    if (tr) tr->End(build_span);
    pass.build_s += NowSeconds() - b0;
    if (!plan.ok()) {
      ++pass.failed;
      continue;
    }
    uint32_t drain_span = 0;
    if (tr) {
      drain_span = tr->Begin(root, trace::SpanKind::kExec, "exec:drain");
      tr->SetDefaultParent(drain_span);
    }
    Result<Rows> rows = [&] {
      trace::ThreadTraceScope scope(tr.get(), drain_span);
      return CollectRows(plan.value().get());
    }();
    if (tr) {
      tr->End(drain_span);
      tr->End(root);
    }
    if (!rows.ok()) {
      ++pass.failed;
      continue;
    }
    pass.rows[static_cast<size_t>(q - 1)] = rows.MoveValue();
    if (traced != nullptr) {
      for (const QueryStats::Node& n : qs.nodes()) {
        double self = static_cast<double>(n.time_ns);
        for (int c : n.children) {
          self -= static_cast<double>(
              qs.nodes()[static_cast<size_t>(c)].time_ns);
        }
        if (self > 0) traced->operator_self_ns += self;
      }
      traced->traces.push_back(std::move(tr));
    }
  }
  pass.wall_s = NowSeconds() - t0;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  return pass;
}

/// Whole passes until `seconds` have gone by (at least `min_passes`).
std::vector<Pass> RunPasses(Database* db, int dop, double seconds,
                            int min_passes, TracedPass* traced) {
  std::vector<Pass> passes;
  const double start = NowSeconds();
  while (static_cast<int>(passes.size()) < min_passes ||
         NowSeconds() - start < seconds) {
    passes.push_back(RunPass(db, dop, traced));
  }
  return passes;
}

double UnionNs(std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      total += static_cast<double>(hi - lo);
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  return total + static_cast<double>(hi - lo);
}

std::vector<double> Field(const std::vector<Pass>& passes, double Pass::*f) {
  std::vector<double> out;
  for (const Pass& p : passes) out.push_back(p.*f);
  return out;
}

/// Compares every pass's rows with the stock twin's, query by query, and
/// each table's row count with the generator's.
void CheckOutputs(const Args& args, Database* db,
                  const std::vector<Pass>& passes, Checker* checker) {
  CheckTpchRowCounts(db, kSf, checker);
  auto twin = LoadTpchDb(StockOptions(args.data_dir + "/twin"), kSf,
                         args.seed);
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    auto ctx = twin->MakeContext();
    auto plan = tpch::BuildTpchQuery(q, ctx.get());
    Must(plan.status(), "build twin query");
    Result<Rows> expected = CollectRows(plan.value().get());
    Must(expected.status(), "run twin query");
    checker->Check("q" + std::to_string(q) + " rows == stock twin",
                   [&](bool perturb) {
                     const Rows want = perturb ? PerturbRows(expected.value())
                                               : expected.value();
                     for (const Pass& p : passes) {
                       if (!SameRows(p.rows[static_cast<size_t>(q - 1)],
                                     want)) {
                         return false;
                       }
                     }
                     return true;
                   });
  }
}

/// The traced run's per-layer figures: untraced passes at dop 4 and at
/// dop 1, then traced passes at dop 4 with telemetry on, a third of the
/// window each. All of them are added to `passes` for the checks.
void MeasureLayers(const Args& args, Database* db,
                   const telemetry::TelemetrySnapshot& after_setup,
                   std::vector<Pass>* passes, RunResult* result) {
  const int dop = db->options().dop;
  const double third = args.seconds / 3;
  const telemetry::TelemetrySnapshot s0 = db->SnapshotTelemetry();
  std::vector<Pass> dop4 = RunPasses(db, dop, third, 2, nullptr);
  const CounterDelta delta(s0, db->SnapshotTelemetry());
  std::vector<Pass> dop1 = RunPasses(db, 1, third, 2, nullptr);
  TracedPass tp;
  telemetry::SetEnabled(true);
  const telemetry::TelemetrySnapshot t0 = db->SnapshotTelemetry();
  std::vector<Pass> traced = RunPasses(db, dop, third, 2, &tp);
  const telemetry::TelemetrySnapshot t1 = db->SnapshotTelemetry();
  telemetry::SetEnabled(false);
  const double npass = static_cast<double>(traced.size());
  const double queries =
      static_cast<double>(dop4.size()) * tpch::kNumTpchQueries;

  Fold fold;
  double rows_scanned = 0;
  double gather_ns = 0;
  double busy_ns = 0;
  double drain_ns = 0;
  double bee_ns = 0;
  std::vector<double> forge_wait_ms;
  std::vector<double> page_io_ms;
  std::vector<std::shared_ptr<const trace::Trace>> keep;
  for (const auto& tr : tp.traces) {
    const std::vector<trace::Span> spans = tr->Snapshot();
    fold.Add(spans);
    double forge = 0;
    double pio = 0;
    // Worker busy time: the union of each thread's fragment windows.
    std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> frags;
    for (const trace::Span& s : spans) {
      if (s.end_ns <= s.start_ns || s.start_ns == 0) continue;
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.kind == trace::SpanKind::kOperator &&
          (s.name.rfind("SeqScan(", 0) == 0 ||
           s.name.rfind("ParallelScan(", 0) == 0)) {
        rows_scanned += static_cast<double>(s.rows);
      }
      if (s.kind == trace::SpanKind::kFragment) {
        frags[s.tid].emplace_back(s.start_ns, s.end_ns);
      }
      if (s.kind == trace::SpanKind::kExec) drain_ns += d;
      if (s.kind == trace::SpanKind::kBee) bee_ns += d;
      if (s.kind == trace::SpanKind::kWait) {
        if (s.wait == trace::WaitKind::kGatherQueue) gather_ns += d;
        if (s.wait == trace::WaitKind::kForge) forge += d;
        if (s.wait == trace::WaitKind::kPageIo) pio += d;
      }
    }
    for (auto& [tid, iv] : frags) busy_ns += UnionNs(std::move(iv));
    forge_wait_ms.push_back(forge / 1e6);
    page_io_ms.push_back(pio / 1e6);
    if (keep.size() < 2 * tpch::kNumTpchQueries) keep.push_back(tr);
  }
  WriteTraces(args.trace_out, keep);

  const double wall4 = Median(Field(dop4, &Pass::wall_s));
  const double cpu1 = Median(Field(dop1, &Pass::cpu_s));
  double build_s = 0;
  for (const Pass& p : traced) build_s += p.build_s;

  result->Add("exec.plan_build_ms", "ms", build_s / npass * 1e3);
  result->Add("exec.operator_self_ms", "ms",
              tp.operator_self_ns / npass / 1e6);
  result->Add("exec.gather_wait_ms", "ms", gather_ns / npass / 1e6);
  result->Add("exec.parallel_efficiency", "ratio",
              drain_ns > 0 ? busy_ns / (dop * drain_ns) : 0);
  result->Add("exec.cpu_inflation", "ratio",
              cpu1 > 0 ? Median(Field(dop4, &Pass::cpu_s)) / cpu1 : 0);
  result->Add("exec.rows_scanned", "rows", rows_scanned / npass);
  result->Add("bee.self_ms", "ms", bee_ns / npass / 1e6);
  AddWorkOpsPerRow(delta, result);
  AddNativeDeformShare(t0, t1, result);
  result->Add("bee.query_bees_created", "count",
              (delta("microspec_bee_evp_created_total") +
               delta("microspec_bee_evj_created_total")) /
                  queries);
  result->Add("bee.forge_wait_ms", "ms", Median(forge_wait_ms));
  result->Add("bee.forge_compile_s", "s",
              CounterSum(after_setup, "microspec_forge_compile_seconds_total"));
  result->Add("storage.buffer_hit_ratio", "ratio",
              Ratio(delta("microspec_buffer_hits_total"),
                    delta("microspec_buffer_misses_total")));
  result->Add("storage.pages_read", "pages",
              delta("microspec_pages_read_total") / queries);
  result->Add("storage.page_io_wait_ms", "ms", Mean(page_io_ms));
  result->Add("storage.heap_pages", "pages", HeapPages(db));
  result->Add("storage.fsync_us", "us", FsyncProbeUs(db->options().dir));
  AddFold(fold, npass, result);
  // Layers the library-level query suite never reaches: no wire, no SQL,
  // no shared query-bee cache, no writes, no restart, no TPC-C.
  AddZeros(result, "ms",
           {"server.wire_overhead_ms", "server.admission_wait_ms",
            "sqlfe.exec_ms", "tpcc.new_order_p50_ms", "tpcc.payment_p50_ms",
            "tpcc.order_status_p50_ms", "tpcc.delivery_p50_ms",
            "tpcc.stock_level_p50_ms"});
  AddZeros(result, "us", {"sqlfe.parse_us", "sqlfe.plan_us",
                          "index.lookup_us"});
  AddZeros(result, "ratio",
           {"server.stmt_cache_hit_ratio", "bee.query_cache_hit_ratio"});
  AddZeros(result, "pages", {"storage.pages_written"});
  AddZeros(result, "count",
           {"storage.wal_records_per_txn", "storage.wal_fsyncs_per_txn",
            "storage.recovery_records_scanned", "storage.redo_applied"});
  AddZeros(result, "bytes", {"storage.wal_bytes_per_txn"});
  AddZeros(result, "s", {"storage.restart_s"});
  AddZeros(result, "records/s", {"storage.redo_records_per_s"});
  result->Add("trace.overhead_pct", "%",
              wall4 > 0 ? (Median(Field(traced, &Pass::wall_s)) - wall4) /
                              wall4 * 100
                        : 0);
  for (std::vector<Pass>* part : {&dop4, &dop1, &traced}) {
    passes->insert(passes->end(), part->begin(), part->end());
  }
}

}  // namespace

RunResult RunTpchParallel(const Args& args, Checker* checker) {
  if (!bee::NativeJit::CompilerAvailable()) {
    std::fprintf(stderr, "tpch_parallel needs a C compiler (cc) for native "
                         "bees\n");
    std::exit(3);
  }
  RunResult result;
  const std::string dir = args.data_dir + "/tpch";
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    std::unique_ptr<Database> db = LoadTpchDb(BeeOptions(dir), kSf, args.seed);
    setup_s.push_back(NowSeconds() - t0);
    return db;
  };
  std::unique_ptr<Database> db;
  for (int i = 0; i < (args.trace ? 1 : kSetupsBefore); ++i) {
    db.reset();
    db = timed_setup();
  }
  const telemetry::TelemetrySnapshot after_setup = db->SnapshotTelemetry();
  const double db_mb = DirMb(dir);

  const int dop = db->options().dop;
  std::vector<Pass> passes;
  RunPass(db.get(), dop, nullptr);  // warm-up: caches and executor pool
  if (args.trace) {
    MeasureLayers(args, db.get(), after_setup, &passes, &result);
  } else {
    passes = RunPasses(db.get(), dop, args.seconds, 3, nullptr);
    std::vector<double> wall = Field(passes, &Pass::wall_s);
    std::vector<double> cpu = Field(passes, &Pass::cpu_s);
    double total = 0;
    for (double w : wall) total += w;
    for (double& w : wall) w *= 1e3;
    for (double& c : cpu) c *= 1e3;
    result.Add("peak_rss_mb", "MiB", PeakRssMb());
    result.Add("db_mb", "MiB", db_mb);
    result.Add("ops_per_s", "1/s", static_cast<double>(passes.size()) / total);
    result.Add("op_p50_ms", "ms", Median(wall));
    // A run makes fewer than 40 passes: no percentile above the median has
    // ten passes beyond it, so the tail is the median.
    result.Add("op_tail_ms", "ms", Median(wall));
    result.Add("op_cpu_ms", "ms", Median(cpu));
  }
  uint64_t failed = 0;
  for (const Pass& p : passes) failed += p.failed;
  result.CountOps(passes.size() * tpch::kNumTpchQueries, failed);
  CheckOutputs(args, db.get(), passes, checker);
  if (!args.trace) {
    db.reset();
    for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
    result.Add("setup_s", "s", Median(setup_s));
  }
  return result;
}

}  // namespace perfbench
