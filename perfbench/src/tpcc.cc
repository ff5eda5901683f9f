// tpcc_memory: the TPC-C default mix driven through the public TpccWorkload
// transaction functions on one terminal with the WAL off, each call timed by
// the benchmark. Its traced run adds a durable probe that crashes a WAL-on
// image at a transaction boundary and times Database::Open on it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "bee/native_jit.h"
#include "exec/plan_builder.h"
#include "harness.h"
#include "workloads/tpcc/tpcc_workload.h"

namespace perfbench {

namespace {

using tpcc::TpccConfig;
using tpcc::TpccWorkload;

/// Set-ups timed before the window (the last is the measured database)
/// and after it: two clusters some 20 s apart, so a brief disturbance of
/// the machine moves the median set-up time less.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr int kTxnTypes = 5;
/// The timed window runs as kWindows windows of kSlices slices each.
constexpr int kWindows = 5;
constexpr int kSlices = 2;
const char* const kTxnNames[kTxnTypes] = {"new_order", "payment",
                                          "order_status", "delivery",
                                          "stock_level"};
const char* const kTables[] = {"warehouse", "district", "customer",
                               "history",   "neworder", "torders",
                               "orderline", "item",     "stock"};

/// Warm-up transactions before the timed window.
constexpr uint64_t kWarmTxns = 5000;
/// Transactions the durable probe runs before its crash.
constexpr uint64_t kRestartTxns = 400;

DatabaseOptions Options(const std::string& dir) {
  DatabaseOptions o;
  o.dir = dir;
  o.enable_bees = true;
  o.enable_tuple_bees = true;
  o.backend = bee::BeeBackend::kNative;
  return o;
}

TpccConfig Config(uint64_t seed) {
  TpccConfig c;  // 2 warehouses, scaled spec ratios
  c.seed = seed;
  return c;
}

std::unique_ptr<Database> Setup(const DatabaseOptions& options,
                                uint64_t seed) {
  RemoveDir(options.dir);
  auto db = Database::Open(options);
  Must(db.status(), "open TPC-C database");
  Must(tpcc::CreateTpccTables(db.value().get()), "create TPC-C tables");
  TpccWorkload loader(db.value().get(), Config(seed));
  Must(loader.Load(), "load TPC-C");
  db.value()->QuiesceBees();
  return db.MoveValue();
}

/// Latencies (ms) and outcomes of the transactions one window ran.
struct Window {
  double start_s = 0;
  double elapsed_s = 0;
  std::vector<Cut> cuts;  // slice boundaries of a timed window
  std::vector<double> ms[kTxnTypes];
  std::vector<Sample> new_orders;  // the end-to-end operation
  uint64_t ok[kTxnTypes] = {};
  uint64_t failed = 0;
  std::vector<std::shared_ptr<trace::Trace>> traces;  // the traced terminal

  uint64_t committed() const {
    uint64_t n = 0;
    for (uint64_t c : ok) n += c;
    return n;
  }
};

/// The default mix as a deck of 100 cards (NewOrder 45, Payment 43,
/// OrderStatus 4, Delivery 4, StockLevel 4), reshuffled from the terminal's
/// generator every 100 draws: every run draws the same mix whatever its seed.
class Deck {
 public:
  int Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      if (cards_.empty()) {
        const tpcc::TpccMix mix = tpcc::TpccMix::Default();
        const int weights[kTxnTypes] = {mix.new_order, mix.payment,
                                        mix.order_status, mix.delivery,
                                        mix.stock_level};
        for (int k = 0; k < kTxnTypes; ++k) {
          cards_.insert(cards_.end(), weights[k], k);
        }
      }
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Uniform(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  size_t next_ = 0;
};

/// Adds `part`'s outcomes, latencies and traces to `into`.
void Absorb(Window* into, Window* part) {
  for (int k = 0; k < kTxnTypes; ++k) {
    into->ok[k] += part->ok[k];
    into->ms[k].insert(into->ms[k].end(), part->ms[k].begin(),
                       part->ms[k].end());
  }
  into->new_orders.insert(into->new_orders.end(), part->new_orders.begin(),
                          part->new_orders.end());
  into->failed += part->failed;
  for (auto& tr : part->traces) into->traces.push_back(std::move(tr));
}

/// Runs one terminal thread drawing the default mix for exactly `txns`
/// transactions, or for `seconds` when `txns` is 0. Its draws come from
/// (seed, round). With `traced`, every call is a span under one root span.
Window RunWindow(Database* db, TpccWorkload* w, uint64_t seed, double seconds,
                 uint64_t txns, uint64_t round, bool traced) {
  Window win;
  std::atomic<bool> stop{false};
  win.start_s = NowSeconds();
  std::thread terminal([&] {
    Rng rng(seed * 1000003 + round * 131 + 1);
    Deck deck;
    auto ctx = db->MakeContext();
    std::shared_ptr<trace::Trace> tr;
    uint32_t root = 0;
    if (traced) {
      tr = std::make_shared<trace::Trace>(1, size_t{1} << 22);
      root = tr->Begin(0, trace::SpanKind::kSession, "terminal");
    }
    for (uint64_t n = 0; txns == 0 ? !stop.load(std::memory_order_relaxed)
                                   : n < txns;
         ++n) {
      const int kind = deck.Draw(rng);
      const uint32_t span =
          tr ? tr->Begin(root, trace::SpanKind::kExec,
                         std::string("workloads/tpcc:") + kTxnNames[kind])
             : 0;
      const double a = NowSeconds();
      Status st;
      switch (kind) {
        case 0: st = w->NewOrder(ctx.get(), rng); break;
        case 1: st = w->Payment(ctx.get(), rng); break;
        case 2: st = w->OrderStatus(ctx.get(), rng); break;
        case 3: st = w->Delivery(ctx.get(), rng); break;
        default: st = w->StockLevel(ctx.get(), rng); break;
      }
      const double b = NowSeconds();
      if (tr) tr->End(span);
      if (st.ok()) {
        ++win.ok[kind];
        win.ms[kind].push_back((b - a) * 1e3);
        if (kind == 0) win.new_orders.push_back({b, (b - a) * 1e3});
      } else {
        ++win.failed;
        std::fprintf(stderr, "%s failed: %s\n", kTxnNames[kind],
                     st.ToString().c_str());
      }
    }
    if (tr) {
      tr->End(root);
      win.traces.push_back(std::move(tr));
    }
  });
  if (txns == 0) {
    win.cuts = WaitSlices(win.start_s, seconds, kSlices);
    stop.store(true);
  }
  terminal.join();
  win.elapsed_s = NowSeconds() - win.start_s;
  return win;
}

/// Every row of `table` through the engine's scan path.
Rows ScanTable(Database* db, const std::string& table) {
  auto ctx = db->MakeContext();
  Plan plan = Plan::Scan(ctx.get(), db->catalog()->GetTable(table));
  OperatorPtr op = std::move(plan).Build();
  Result<Rows> rows = CollectRows(op.get());
  Must(rows.status(), "scan TPC-C table");
  return rows.MoveValue();
}

int64_t Int(const std::string& cell) { return std::atoll(cell.c_str()); }
double Real(const std::string& cell) { return std::atof(cell.c_str()); }

/// Order-independent digest of a table's tuple multiset.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const Rows& rows) {
  Digest d;
  for (const std::vector<std::string>& row : rows) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a over the rendered cells
    for (const std::string& cell : row) {
      for (char c : cell) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
      h = (h ^ 0x1f) * 1099511628211ULL;
    }
    ++d.count;
    d.sum += h;
    d.sum_sq += h * h;
  }
  return d;
}

/// Checks TPC-C consistency conditions 1-4 over every warehouse and
/// district, and that torders grew by exactly the committed NewOrders.
void CheckConsistency(Database* db, const std::string& when,
                      uint64_t orders_before, uint64_t new_orders,
                      Checker* checker) {
  std::map<int64_t, double> w_ytd;
  std::map<int64_t, double> d_ytd_sum;
  for (const auto& r : ScanTable(db, "warehouse")) {
    w_ytd[Int(r[tpcc::kWId])] = Real(r[tpcc::kWYtd]);
  }
  using Key = std::pair<int64_t, int64_t>;  // (w, d)
  std::map<Key, int64_t> next_o;
  for (const auto& r : ScanTable(db, "district")) {
    d_ytd_sum[Int(r[tpcc::kDWId])] += Real(r[tpcc::kDYtd]);
    next_o[{Int(r[tpcc::kDWId]), Int(r[tpcc::kDId])}] =
        Int(r[tpcc::kDNextOId]);
  }
  std::map<Key, int64_t> max_o;
  std::map<Key, int64_t> ol_cnt_sum;
  const Rows orders = ScanTable(db, "torders");
  for (const auto& r : orders) {
    const Key k{Int(r[tpcc::kOWId]), Int(r[tpcc::kODId])};
    max_o[k] = std::max(max_o[k], Int(r[tpcc::kOId]));
    ol_cnt_sum[k] += Int(r[tpcc::kOOlCnt]);
  }
  std::map<Key, int64_t> max_no;
  std::map<Key, int64_t> min_no;
  std::map<Key, int64_t> count_no;
  for (const auto& r : ScanTable(db, "neworder")) {
    const Key k{Int(r[tpcc::kNoWId]), Int(r[tpcc::kNoDId])};
    const int64_t o = Int(r[tpcc::kNoOId]);
    max_no[k] = std::max(max_no[k], o);
    min_no[k] = min_no.count(k) != 0 ? std::min(min_no[k], o) : o;
    ++count_no[k];
  }
  std::map<Key, int64_t> ol_count;
  for (const auto& r : ScanTable(db, "orderline")) {
    ++ol_count[{Int(r[tpcc::kOlWId]), Int(r[tpcc::kOlDId])}];
  }

  checker->Check(when + ": W_YTD = sum(D_YTD)", [&](bool perturb) {
    for (const auto& [w, ytd] : w_ytd) {
      const double want = d_ytd_sum[w] + (perturb ? 1.0 : 0.0);
      if (std::abs(ytd - want) > 1e-9 * std::max(1.0, std::abs(want))) {
        return false;
      }
    }
    return !w_ytd.empty();
  });
  checker->Check(when + ": D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID)",
                 [&](bool perturb) {
                   for (const auto& [k, next] : next_o) {
                     const int64_t want = next - 1 + (perturb ? 1 : 0);
                     if (max_o[k] != want || max_no[k] != want) return false;
                   }
                   return !next_o.empty();
                 });
  checker->Check(when + ": count(NO) = max(NO_O_ID) - min(NO_O_ID) + 1",
                 [&](bool perturb) {
                   for (const auto& [k, n] : count_no) {
                     if (n != max_no[k] - min_no[k] + 1 + (perturb ? 1 : 0)) {
                       return false;
                     }
                   }
                   return count_no.size() == next_o.size();
                 });
  checker->Check(when + ": sum(O_OL_CNT) = count(orderline)",
                 [&](bool perturb) {
                   for (const auto& [k, n] : ol_cnt_sum) {
                     if (ol_count[k] != n + (perturb ? 1 : 0)) return false;
                   }
                   return !ol_cnt_sum.empty();
                 });
  checker->Check(when + ": torders grew by the committed NewOrders",
                 [&](bool perturb) {
                   return orders.size() ==
                          orders_before + new_orders + (perturb ? 1 : 0);
                 });
}

/// p50 (µs per call) of direct primary-key lookups drawn like the
/// transactions draw their keys (NURand customers and items, uniform
/// warehouses and districts), timed in batches of 64 calls.
double IndexLookupUs(Database* db, const TpccConfig& c, uint64_t seed) {
  Catalog* cat = db->catalog();
  IndexInfo* customer = cat->GetTable("customer")->GetIndex("customer_pk");
  IndexInfo* item = cat->GetTable("item")->GetIndex("item_pk");
  IndexInfo* stock = cat->GetTable("stock")->GetIndex("stock_pk");
  IndexInfo* district = cat->GetTable("district")->GetIndex("district_pk");
  Rng rng(seed ^ 0x5eed);
  constexpr int kBatch = 64;
  std::vector<double> us;
  uint64_t missing = 0;
  for (int b = 0; b < 400; ++b) {
    std::pair<IndexInfo*, IndexKey> probes[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      const int64_t w = rng.UniformRange(1, c.warehouses);
      const int64_t d = rng.UniformRange(1, c.districts_per_warehouse);
      switch (i % 4) {
        case 0:
          probes[i] = {customer,
                       IndexKey::Of({w, d, rng.NonUniform(
                                               1023, 1,
                                               c.customers_per_district)})};
          break;
        case 1:
          probes[i] = {item, IndexKey::Of({rng.NonUniform(8191, 1, c.items)})};
          break;
        case 2:
          probes[i] = {stock,
                       IndexKey::Of({w, rng.NonUniform(8191, 1, c.items)})};
          break;
        default:
          probes[i] = {district, IndexKey::Of({w, d})};
          break;
      }
    }
    const double t0 = NowSeconds();
    for (const auto& [idx, key] : probes) {
      TupleId tid = 0;
      if (!idx->btree->Lookup(key, &tid)) ++missing;
    }
    us.push_back((NowSeconds() - t0) * 1e6 / kBatch);
  }
  if (missing != 0) {
    std::fprintf(stderr, "index probe: %llu keys missing\n",
                 static_cast<unsigned long long>(missing));
  }
  return Median(us);
}

/// What the durable probe measured: its log traffic per transaction and
/// the restart of its crashed image.
struct DurableProbe {
  double restart_s = 0;
  RecoveryStats recovery;
  double wal_records = 0;  // per committed transaction
  double wal_bytes = 0;
  double wal_fsyncs = 0;
  double pages_written = 0;
};

/// A fresh set-up with the WAL on, in its own directory, runs a fixed
/// number of transactions on one terminal (so the log to recover has the
/// same length whatever the machine's speed), crashes at a transaction
/// boundary, and is reopened. Each table's tuple multiset must survive the
/// crash unchanged and conditions 1-4 must hold again.
DurableProbe RunDurableProbe(const Args& args, DatabaseOptions options,
                             Checker* checker, RunResult* result) {
  options.dir = args.data_dir + "/restart";
  options.wal_enabled = true;
  DurableProbe probe;
  std::unique_ptr<Database> db = Setup(options, args.seed);
  const uint64_t orders_before =
      db->catalog()->GetTable("torders")->tuple_count();
  const telemetry::TelemetrySnapshot s0 = db->SnapshotTelemetry();
  Window run;
  {
    TpccWorkload workload(db.get(), Config(args.seed));
    run = RunWindow(db.get(), &workload, args.seed, 0, kRestartTxns, 3, false);
  }
  const telemetry::TelemetrySnapshot s1 = db->SnapshotTelemetry();
  auto per_txn = [&](const std::string& name) {
    return (CounterSum(s1, name) - CounterSum(s0, name)) /
           static_cast<double>(run.committed());
  };
  probe.wal_records = per_txn("microspec_wal_records_total");
  probe.wal_bytes = per_txn("microspec_wal_bytes_total");
  probe.wal_fsyncs = per_txn("microspec_wal_fsyncs_total");
  probe.pages_written = per_txn("microspec_pages_written_total");
  result->CountOps(run.committed() + run.failed, run.failed);
  std::map<std::string, Digest> before;
  for (const char* t : kTables) before[t] = DigestOf(ScanTable(db.get(), t));
  db->SimulateCrashForTests();
  db.reset();
  const double t0 = NowSeconds();
  auto reopened = Database::Open(options);
  probe.restart_s = NowSeconds() - t0;
  Must(reopened.status(), "reopen crashed TPC-C database");
  db = reopened.MoveValue();
  probe.recovery = db->last_recovery();
  for (const char* t : kTables) {
    const Digest after = DigestOf(ScanTable(db.get(), t));
    checker->Check(std::string("restart: digest(") + t + ") = pre-crash",
                   [&](bool perturb) {
                     Digest want = before[t];
                     if (perturb) ++want.sum;
                     return after == want;
                   });
  }
  CheckConsistency(db.get(), "after restart", orders_before, run.ok[0],
                   checker);
  return probe;
}

}  // namespace

RunResult RunTpccMemory(const Args& args, Checker* checker) {
  if (!bee::NativeJit::CompilerAvailable()) {
    std::fprintf(stderr, "tpcc_memory needs a C compiler (cc)\n");
    std::exit(3);
  }
  RunResult result;
  const std::string dir = args.data_dir + "/tpcc";
  const DatabaseOptions options = Options(dir);
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    std::unique_ptr<Database> db = Setup(options, args.seed);
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
  const double heap_pages = HeapPages(db.get());
  const uint64_t orders_before =
      db->catalog()->GetTable("torders")->tuple_count();
  TpccWorkload workload(db.get(), Config(args.seed));

  // Warm-up: a fixed number of transactions, so caches, bee tiers and
  // memory reach the same state whatever the run's speed.
  const Window warm =
      RunWindow(db.get(), &workload, args.seed, 0, kWarmTxns, 2, false);
  const double rss = PeakRssMb();

  // Untraced windows (the end-to-end figures), each with a terminal thread
  // of its own, so the figures are medians over where the scheduler placed
  // several threads; the traced run adds one traced window of the same
  // total length after them.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const telemetry::TelemetrySnapshot s0 = db->SnapshotTelemetry();
  Window win;
  Slices slices(0.99);  // a slice holds thousands of NewOrders
  const double start = NowSeconds();
  for (int i = 0; i < kWindows; ++i) {
    Window part = RunWindow(db.get(), &workload, args.seed,
                            window_s / kWindows, 0,
                            10 + static_cast<uint64_t>(i), false);
    slices.Add(part.new_orders, part.cuts);
    Absorb(&win, &part);
  }
  win.elapsed_s = NowSeconds() - start;
  const telemetry::TelemetrySnapshot s1 = db->SnapshotTelemetry();
  Window traced;
  telemetry::TelemetrySnapshot t0;
  telemetry::TelemetrySnapshot t1;
  if (args.trace) {
    telemetry::SetEnabled(true);
    t0 = db->SnapshotTelemetry();
    traced = RunWindow(db.get(), &workload, args.seed, window_s, 0, 1, true);
    t1 = db->SnapshotTelemetry();
    telemetry::SetEnabled(false);
  }
  for (const Window* w : {&warm, static_cast<const Window*>(&win),
                          static_cast<const Window*>(&traced)}) {
    result.CountOps(w->committed() + w->failed, w->failed);
  }
  CheckConsistency(db.get(), "after run", orders_before,
                   warm.ok[0] + win.ok[0] + traced.ok[0], checker);

  if (!args.trace) {
    db.reset();
    for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
    result.Add("setup_s", "s", Median(setup_s));
    result.Add("peak_rss_mb", "MiB", rss);
    result.Add("db_mb", "MiB", db_mb);
    result.Add("ops_per_s", "1/s", slices.ops_per_s());
    result.Add("op_p50_ms", "ms", slices.p50_ms());
    result.Add("op_tail_ms", "ms", slices.tail_ms());
    result.Add("op_cpu_ms", "ms", slices.cpu_ms());
    return result;
  }

  const double lookup_us = IndexLookupUs(db.get(), Config(args.seed), args.seed);
  // The WAL and restart figures come from a durable probe of their own.
  const DurableProbe probe = RunDurableProbe(args, options, checker, &result);

  const CounterDelta delta(s0, s1);
  Fold fold;
  std::vector<double> type_ms[kTxnTypes];
  std::vector<std::shared_ptr<const trace::Trace>> keep;
  for (const auto& tr : traced.traces) {
    const std::vector<trace::Span> spans = tr->Snapshot();
    fold.Add(spans);
    for (const trace::Span& s : spans) {
      for (int k = 0; k < kTxnTypes; ++k) {
        if (s.parent != 0 && s.end_ns > s.start_ns &&
            s.name == std::string("workloads/tpcc:") + kTxnNames[k]) {
          type_ms[k].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                               1e6);
        }
      }
    }
    keep.push_back(tr);
  }
  WriteTraces(args.trace_out, keep);

  // Layers a single-tuple workload never reaches: no wire, no SQL, no
  // plans, scans or query bees, and no page reads with every page cached.
  AddZeros(&result, "ms",
           {"server.wire_overhead_ms", "server.admission_wait_ms",
            "sqlfe.exec_ms", "exec.plan_build_ms", "exec.operator_self_ms",
            "exec.gather_wait_ms", "bee.self_ms", "bee.forge_wait_ms",
            "storage.page_io_wait_ms"});
  AddZeros(&result, "us", {"sqlfe.parse_us", "sqlfe.plan_us"});
  AddZeros(&result, "ratio",
           {"server.stmt_cache_hit_ratio", "exec.parallel_efficiency",
            "exec.cpu_inflation", "bee.query_cache_hit_ratio"});
  AddZeros(&result, "rows", {"exec.rows_scanned"});
  AddZeros(&result, "count", {"bee.query_bees_created"});
  AddZeros(&result, "pages", {"storage.pages_read"});

  AddWorkOpsPerRow(delta, &result);
  AddNativeDeformShare(t0, t1, &result);
  result.Add("bee.forge_compile_s", "s",
             CounterSum(after_setup, "microspec_forge_compile_seconds_total"));
  result.Add("storage.buffer_hit_ratio", "ratio",
             Ratio(delta("microspec_buffer_hits_total"),
                   delta("microspec_buffer_misses_total")));
  result.Add("storage.heap_pages", "pages", heap_pages);
  result.Add("storage.pages_written", "pages", probe.pages_written);
  result.Add("storage.wal_records_per_txn", "count", probe.wal_records);
  result.Add("storage.wal_bytes_per_txn", "bytes", probe.wal_bytes);
  result.Add("storage.wal_fsyncs_per_txn", "count", probe.wal_fsyncs);
  result.Add("storage.fsync_us", "us", FsyncProbeUs(dir));
  result.Add("storage.restart_s", "s", probe.restart_s);
  result.Add("storage.recovery_records_scanned", "count",
             static_cast<double>(probe.recovery.records_scanned));
  result.Add("storage.redo_applied", "count",
             static_cast<double>(probe.recovery.redo_applied));
  result.Add("storage.redo_records_per_s", "records/s",
             static_cast<double>(probe.recovery.redo_applied) /
                 probe.restart_s);
  result.Add("index.lookup_us", "us", lookup_us);
  for (int k = 0; k < kTxnTypes; ++k) {
    result.Add(std::string("tpcc.") + kTxnNames[k] + "_p50_ms", "ms",
               Median(type_ms[k]));
  }
  AddFold(fold, static_cast<double>(traced.committed()), &result);
  const double rate = static_cast<double>(win.ok[0]) / win.elapsed_s;
  const double traced_rate =
      static_cast<double>(traced.ok[0]) / traced.elapsed_s;
  result.Add("trace.overhead_pct", "%",
             traced_rate > 0 ? (rate / traced_rate - 1) * 100 : 0);
  return result;
}

}  // namespace perfbench
