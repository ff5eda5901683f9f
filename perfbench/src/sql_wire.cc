// sql_wire: an in-process server::Server on a loopback port driven by a
// closed loop of four server::Client connections (fewer on a machine with
// fewer CPUs), one thread each, over
// TPC-H SF 0.05 with the page-batch pipeline, shared query bees and a
// buffer pool that holds about a third of the data.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "bee/native_jit.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "harness.h"
#include "server/client.h"
#include "server/server.h"
#include "sqlfe/engine.h"

namespace perfbench {

namespace {

constexpr double kSf = 0.05;
/// Set-ups timed before the window (the last is the measured database) and
/// after the checks: two clusters some 20 s apart, so a brief disturbance
/// of the machine moves the median set-up time less.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr int kSlices = 10;
/// SF 0.05 is about 6.1k heap pages; 2k frames hold about a third of them.
constexpr size_t kPoolFrames = 2048;
constexpr const char* kSideTable = "wire_events";

/// Statements every connection prepares once and then executes repeatedly.
const char* const kPrepared[] = {
    "SELECT count(*) AS n, min(s_acctbal) AS lo FROM supplier "
    "WHERE s_nationkey < 10",
    "SELECT p_brand, count(*) AS n FROM part WHERE p_size < 10 "
    "GROUP BY p_brand",
};
/// The join, a simple query whose text repeats (statement-cache hits).
const char* const kJoinSql =
    "SELECT n_name, count(*) AS n FROM supplier JOIN nation "
    "ON s_nationkey = n_nationkey GROUP BY n_name";
/// The scan-aggregate over lineitem (larger than the buffer pool).
const char* const kLineitemScan =
    "SELECT count(*) AS n, sum(l_extendedprice) AS revenue FROM lineitem "
    "WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' "
    "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

DatabaseOptions WireOptions(const std::string& dir, bool traced) {
  DatabaseOptions o;
  o.dir = dir;
  o.enable_bees = true;
  o.enable_tuple_bees = true;
  o.backend = bee::BeeBackend::kNative;
  o.share_query_bees = true;
  o.buffer_pool_frames = kPoolFrames;
  o.dop = 1;
  o.batch_rows = kMaxTuplesPerPage;
  // The traced run keeps every sampled statement's trace in memory.
  if (traced) o.trace_ring = size_t{1} << 16;
  return o;
}

DatabaseOptions TwinOptions(const std::string& dir) {
  DatabaseOptions o;
  o.dir = dir;
  o.buffer_pool_frames = 32768;
  return o;
}

std::string CreateSideTableSql() {
  return std::string("CREATE TABLE ") + kSideTable +
         " (e_id int, e_conn int, e_val double)";
}

/// One statement a connection sends: a simple query, a prepared execute,
/// or an INSERT into the side table.
struct Stmt {
  enum Kind { kSimple, kPrepared, kInsert } kind;
  std::string text;  // SQL (simple/insert) or prepared statement name
};

/// The statement categories of the mix, one card each per round.
enum Card { kFreshLiteral, kPreparedExec, kLineitem, kJoin, kInsert, kCards };
const char* const kCardNames[kCards] = {"fresh_literal", "prepared",
                                        "lineitem_scan", "join", "insert"};

/// The statement mix: a synthetic round of one card per category, not a
/// replay of observed traffic, reshuffled from the connection's generator
/// every round. The categories are simple SELECTs with a fresh literal
/// (statement-cache misses, new EVP bees), executes of the two prepared
/// statements in turn (cache hits), the lineitem scan-aggregate, the join,
/// and an INSERT into the side table. Every seed sends the same mix.
class Round {
 public:
  Round() {
    for (int c = 0; c < kCards; ++c) cards_.push_back(static_cast<Card>(c));
    next_ = cards_.size();  // shuffle before the first draw
  }

  /// The next statement; `*card` receives its category.
  Stmt Draw(Rng& rng, int conn, uint64_t* next_id, Card* card) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Uniform(i + 1)]);
      }
      next_ = 0;
    }
    char buf[256];
    *card = cards_[next_++];
    switch (*card) {
      case kFreshLiteral:
        std::snprintf(buf, sizeof(buf),
                      "SELECT count(*) AS n FROM customer WHERE c_acctbal > "
                      "%" PRId64 ".%02" PRId64,
                      rng.UniformRange(0, 9999), rng.UniformRange(0, 99));
        return {Stmt::kSimple, buf};
      case kPreparedExec:
        return {Stmt::kPrepared, prepared_++ % 2 == 0 ? "p0" : "p1"};
      case kLineitem:
        return {Stmt::kSimple, kLineitemScan};
      case kJoin:
        return {Stmt::kSimple, kJoinSql};
      default:
        break;
    }
    std::snprintf(buf, sizeof(buf),
                  "INSERT INTO %s VALUES (%" PRIu64 ", %d, %" PRId64 ".5)",
                  kSideTable, (*next_id)++, conn, rng.UniformRange(0, 999));
    return {Stmt::kInsert, buf};
  }

 private:
  std::vector<Card> cards_;
  size_t next_ = 0;
  uint64_t prepared_ = 0;
};

/// What one connection saw in one window.
struct ConnLog {
  std::vector<double> ms;          // client latency per statement, in order
  std::vector<Card> card;          // its category (kCards: the marker)
  std::vector<Sample> samples;     // the same, with completion times
  std::vector<std::string> sql;    // SQL per statement (prepared: its text)
  std::vector<Rows> rows;          // SELECT results, in order (empty: DML)
  uint64_t inserts_acked = 0;
  uint64_t errors = 0;
};

struct WireWindow {
  std::vector<Cut> cuts;
  std::vector<ConnLog> conns;
  uint64_t statements() const {
    uint64_t n = 0;
    for (const ConnLog& c : conns) n += c.ms.size();
    return n;
  }
};

/// Runs every connection's closed loop for `seconds`. With `marker`, each
/// connection first sends a query whose literal names the connection, so a
/// traced window can tell the server sessions apart.
WireWindow RunWindow(std::vector<std::unique_ptr<server::Client>>& clients,
                     uint64_t seed, uint64_t round, double seconds,
                     std::vector<uint64_t>& next_ids, bool marker) {
  WireWindow win;
  win.conns.resize(clients.size());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const double t0 = NowSeconds();
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = win.conns[c];
      server::Client* client = clients[c].get();
      Rng rng(seed * 2654435761u + c * 97 + round * 1000003 + 7);
      Round round_mix;
      bool first = marker;
      while (!stop.load(std::memory_order_relaxed)) {
        Card card = kCards;
        Stmt s = first ? Stmt{Stmt::kSimple,
                              "SELECT count(*) AS n FROM region WHERE "
                              "r_regionkey < " +
                                  std::to_string(100 + c)}
                       : round_mix.Draw(rng, static_cast<int>(c), &next_ids[c],
                                        &card);
        first = false;
        const uint64_t send = telemetry::NowNs();
        Result<server::QueryResult> r =
            s.kind == Stmt::kPrepared ? client->Execute(s.text)
                                      : client->Query(s.text);
        const uint64_t done = telemetry::NowNs();
        if (!r.ok()) {
          ++log.errors;
          std::fprintf(stderr, "statement failed: %s: %s\n", s.text.c_str(),
                       r.status().ToString().c_str());
          continue;
        }
        log.ms.push_back(static_cast<double>(done - send) / 1e6);
        log.card.push_back(card);
        log.samples.push_back({NowSeconds(), log.ms.back()});
        if (s.kind == Stmt::kInsert) {
          ++log.inserts_acked;
          log.sql.push_back(s.text);
          log.rows.emplace_back();
        } else {
          log.sql.push_back(s.kind == Stmt::kPrepared
                                ? kPrepared[s.text == "p0" ? 0 : 1]
                                : s.text);
          log.rows.push_back(std::move(r.value().rows));
        }
      }
    });
  }
  win.cuts = WaitSlices(t0, seconds, kSlices);
  stop.store(true);
  for (std::thread& th : threads) th.join();
  return win;
}

/// A loaded database with its server started and the side table created.
struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;
};

Served SetUp(const DatabaseOptions& options, uint64_t seed) {
  Served s;
  s.db = LoadTpchDb(options, kSf, seed);
  auto ctx = s.db->MakeContext();
  Must(sqlfe::ExecuteSql(s.db.get(), ctx.get(), CreateSideTableSql()).status(),
       "create side table");
  s.server = std::make_unique<server::Server>(s.db.get(),
                                              server::ServerOptions{});
  Must(s.server->Start(), "start server");
  return s;
}

std::vector<std::unique_ptr<server::Client>> Connect(int port) {
  std::vector<std::unique_ptr<server::Client>> clients;
  for (int c = 0; c < UpToCpus(4); ++c) {
    auto client = std::make_unique<server::Client>();
    Must(client->Connect("127.0.0.1", port), "connect");
    for (int p = 0; p < 2; ++p) {
      const std::string name = "p" + std::to_string(p);
      Must(client->Parse(name, kPrepared[p]), "prepare");
      Must(client->Bind(name), "bind");
    }
    clients.push_back(std::move(client));
  }
  return clients;
}

/// Every distinct SELECT text must return, every time it ran, the rows the
/// stock twin returns for it through sqlfe::ExecuteSql; the side table must
/// hold exactly the acknowledged INSERTs.
void CheckOutputs(const Args& args, Database* db,
                  const std::vector<const WireWindow*>& windows,
                  Checker* checker) {
  auto twin = LoadTpchDb(TwinOptions(args.data_dir + "/twin"), kSf, args.seed);
  auto twin_ctx = twin->MakeContext();
  std::map<std::string, std::vector<const Rows*>> seen;
  uint64_t inserts = 0;
  uint64_t errors = 0;
  for (const WireWindow* w : windows) {
    for (const ConnLog& log : w->conns) {
      inserts += log.inserts_acked;
      errors += log.errors;
      for (size_t i = 0; i < log.sql.size(); ++i) {
        if (log.sql[i].rfind("INSERT", 0) == 0) continue;
        seen[log.sql[i]].push_back(&log.rows[i]);
      }
    }
  }
  uint64_t mismatched = 0;
  uint64_t perturbed_caught = 0;
  for (const auto& [sql, results] : seen) {
    auto expected = sqlfe::ExecuteSql(twin.get(), twin_ctx.get(), sql);
    Must(expected.status(), "twin query");
    const Rows& want = expected.value().rows;
    const Rows altered = PerturbRows(want);
    for (const Rows* got : results) {
      if (!SameRows(*got, want)) ++mismatched;
      if (!SameRows(*got, altered)) ++perturbed_caught;
    }
  }
  uint64_t selects = 0;
  for (const auto& [sql, results] : seen) selects += results.size();
  checker->Check("every SELECT over the wire == stock twin", [&](bool perturb) {
    return perturb ? perturbed_caught == 0 : mismatched == 0;
  });
  checker->Check("no statement got an error frame", [&](bool perturb) {
    return errors + (perturb ? 1 : 0) == 0;
  });
  auto ctx = db->MakeContext();
  auto count = sqlfe::ExecuteSql(
      db, ctx.get(), std::string("SELECT count(*) AS n FROM ") + kSideTable);
  Must(count.status(), "count side table");
  const uint64_t rows = std::strtoull(count.value().rows[0][0].c_str(),
                                      nullptr, 10);
  checker->Check("count(side table) = acknowledged INSERTs",
                 [&](bool perturb) {
                   return rows == inserts + (perturb ? 1 : 0);
                 });
}

/// Prints each category's share of the window's statements and of their
/// summed latency, and its median latency (what README.md records).
void ReportMix(const WireWindow& win) {
  double n[kCards] = {};
  double ms[kCards] = {};
  std::vector<double> each[kCards];
  double total_n = 0;
  double total_ms = 0;
  for (const ConnLog& log : win.conns) {
    for (size_t i = 0; i < log.ms.size(); ++i) {
      const int c = log.card[i];
      if (c == kCards) continue;
      n[c] += 1;
      ms[c] += log.ms[i];
      each[c].push_back(log.ms[i]);
      total_n += 1;
      total_ms += log.ms[i];
    }
  }
  for (int c = 0; c < kCards; ++c) {
    std::printf("mix %-14s statements %5.1f %%  time %5.1f %%  p50 %8.2f ms\n",
                kCardNames[c], total_n > 0 ? n[c] / total_n * 100 : 0,
                total_ms > 0 ? ms[c] / total_ms * 100 : 0, Median(each[c]));
  }
}

}  // namespace

RunResult RunSqlWire(const Args& args, Checker* checker) {
  if (!bee::NativeJit::CompilerAvailable()) {
    std::fprintf(stderr, "sql_wire needs a C compiler (cc) for native bees\n");
    std::exit(3);
  }
  RunResult result;
  const std::string dir = args.data_dir + "/wire";
  const DatabaseOptions options = WireOptions(dir, args.trace);
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    Served s = SetUp(options, args.seed);
    setup_s.push_back(NowSeconds() - t0);
    return s;
  };
  Served served;
  for (int i = 0; i < (args.trace ? 1 : kSetupsBefore); ++i) {
    served.server.reset();
    served.db.reset();
    served = timed_setup();
  }
  Database* db = served.db.get();
  const telemetry::TelemetrySnapshot after_setup = db->SnapshotTelemetry();
  const double db_mb = DirMb(dir);
  const double heap_pages = HeapPages(db);
  std::vector<std::unique_ptr<server::Client>> clients =
      Connect(served.server->port());
  std::vector<uint64_t> next_ids(clients.size());
  for (size_t c = 0; c < next_ids.size(); ++c) {
    next_ids[c] = static_cast<uint64_t>(c) << 40;
  }

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const telemetry::TelemetrySnapshot s0 = db->SnapshotTelemetry();
  WireWindow win = RunWindow(clients, args.seed, 0, window_s, next_ids, false);
  const telemetry::TelemetrySnapshot s1 = db->SnapshotTelemetry();
  const double rss = PeakRssMb();
  WireWindow traced;
  telemetry::TelemetrySnapshot t0;
  telemetry::TelemetrySnapshot t1;
  if (args.trace) {
    telemetry::SetEnabled(true);
    db->tracer()->set_sample_n(1);
    t0 = db->SnapshotTelemetry();
    traced = RunWindow(clients, args.seed, 1, window_s, next_ids, true);
    t1 = db->SnapshotTelemetry();
    db->tracer()->set_sample_n(0);
    telemetry::SetEnabled(false);
  }
  for (auto& c : clients) c->Terminate();
  clients.clear();
  served.server->Shutdown();

  std::vector<const WireWindow*> windows = {&win};
  if (args.trace) windows.push_back(&traced);
  uint64_t attempted = 0;
  uint64_t errors = 0;
  for (const WireWindow* w : windows) {
    for (const ConnLog& log : w->conns) {
      attempted += log.ms.size() + log.errors;
      errors += log.errors;
    }
  }
  result.CountOps(attempted, errors);
  CheckOutputs(args, db, windows, checker);

  std::vector<double> ms;
  std::vector<Sample> samples;
  for (const ConnLog& log : win.conns) {
    ms.insert(ms.end(), log.ms.begin(), log.ms.end());
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
  }
  const double stmts = static_cast<double>(win.statements());
  if (!args.trace) {
    ReportMix(win);
    served.server.reset();
    served.db.reset();
    for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
    // p95: a 2-s slice holds about 60 statements, 3 of them beyond it; a
    // run holds about 600, 30 of them beyond it.
    Slices f(0.95);
    f.Add(samples, win.cuts);
    result.Add("setup_s", "s", Median(setup_s));
    result.Add("peak_rss_mb", "MiB", rss);
    result.Add("db_mb", "MiB", db_mb);
    result.Add("ops_per_s", "1/s", f.ops_per_s());
    result.Add("op_p50_ms", "ms", f.p50_ms());
    result.Add("op_tail_ms", "ms", f.tail_ms());
    result.Add("op_cpu_ms", "ms", f.cpu_ms());
    return result;
  }

  // --- traced window: match each connection's statements to the server's
  // traces of its session (the marker statement names the session).
  std::vector<std::shared_ptr<const trace::Trace>> traces =
      db->tracer()->Recent();
  std::map<uint64_t, std::vector<std::vector<trace::Span>>> by_session;
  std::map<uint64_t, int> session_conn;
  std::vector<double> admission_ms;
  for (const auto& tr : traces) {
    std::vector<trace::Span> spans = tr->Snapshot();
    if (spans.empty() || spans[0].kind != trace::SpanKind::kSession) continue;
    const uint64_t session = spans[0].start_ns;
    const std::string sql = tr->sql();
    const std::string marker = "FROM region WHERE r_regionkey < ";
    const size_t at = sql.find(marker);
    if (at != std::string::npos) {
      session_conn[session] = std::atoi(sql.c_str() + at + marker.size()) - 100;
      for (const trace::Span& s : spans) {
        if (s.wait == trace::WaitKind::kAdmission) {
          admission_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                 1e6);
        }
      }
    }
    by_session[session].push_back(std::move(spans));
  }
  Fold fold;
  double client_ns = 0;
  double server_gap_ns = 0;
  std::vector<double> overhead_ms;
  std::vector<double> parse_us;
  std::vector<double> plan_us;
  std::vector<double> exec_ms;
  std::vector<double> forge_ms;
  std::vector<double> pio_ms;
  double bee_ns = 0;
  double rows_scanned = 0;
  uint64_t matched = 0;
  for (auto& [session, list] : by_session) {
    auto conn_it = session_conn.find(session);
    if (conn_it == session_conn.end()) continue;
    const ConnLog& log = traced.conns[static_cast<size_t>(conn_it->second)];
    // Each trace: session root -> statement subtree. Order by statement start.
    std::vector<std::vector<trace::Span>> stmts;
    for (auto& spans : list) {
      std::vector<trace::Span> sub;
      for (trace::Span s : spans) {
        if (s.kind == trace::SpanKind::kSession ||
            s.wait == trace::WaitKind::kAdmission) {
          continue;
        }
        if (s.kind == trace::SpanKind::kStatement) s.parent = 0;
        sub.push_back(std::move(s));
      }
      stmts.push_back(std::move(sub));
    }
    auto stmt_span =
        [](const std::vector<trace::Span>& sub) -> const trace::Span* {
      for (const trace::Span& s : sub) {
        if (s.kind == trace::SpanKind::kStatement) return &s;
      }
      return nullptr;
    };
    std::sort(stmts.begin(), stmts.end(), [&](const auto& a, const auto& b) {
      const trace::Span* x = stmt_span(a);
      const trace::Span* y = stmt_span(b);
      return (x ? x->start_ns : 0) < (y ? y->start_ns : 0);
    });
    const size_t n = std::min(stmts.size(), log.ms.size());
    for (size_t i = 0; i < n; ++i) {
      const trace::Span* st = stmt_span(stmts[i]);
      if (st == nullptr || st->end_ns <= st->start_ns) continue;
      ++matched;
      const double server_ns = static_cast<double>(st->end_ns - st->start_ns);
      const double client = log.ms[i] * 1e6;
      client_ns += client;
      server_gap_ns += std::max(0.0, client - server_ns);
      overhead_ms.push_back((client - server_ns) / 1e6);
      fold.Add(stmts[i]);
      double forge = 0;
      double pio = 0;
      for (const trace::Span& s : stmts[i]) {
        if (s.end_ns <= s.start_ns) continue;
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        if (s.kind == trace::SpanKind::kParse) parse_us.push_back(d / 1e3);
        if (s.kind == trace::SpanKind::kPlan) plan_us.push_back(d / 1e3);
        if (s.kind == trace::SpanKind::kExec) exec_ms.push_back(d / 1e6);
        if (s.kind == trace::SpanKind::kOperator &&
            s.name.rfind("SeqScan(", 0) == 0) {
          rows_scanned += static_cast<double>(s.rows);
        }
        if (s.kind == trace::SpanKind::kBee) bee_ns += d;
        if (s.wait == trace::WaitKind::kForge) forge += d;
        if (s.wait == trace::WaitKind::kPageIo) pio += d;
      }
      forge_ms.push_back(forge / 1e6);
      pio_ms.push_back(pio / 1e6);
    }
  }
  WriteTraces(args.trace_out,
              std::vector<std::shared_ptr<const trace::Trace>>(
                  traces.begin(),
                  traces.begin() + std::min<size_t>(traces.size(), 200)));

  const CounterDelta delta(s0, s1);
  const double nm = static_cast<double>(matched);

  result.Add("server.wire_overhead_ms", "ms", Median(overhead_ms));
  result.Add("server.admission_wait_ms", "ms", Median(admission_ms));
  result.Add("server.stmt_cache_hit_ratio", "ratio",
             Ratio(delta("microspec_stmt_cache_hits_total"),
                   delta("microspec_stmt_cache_misses_total")));
  result.Add("sqlfe.parse_us", "us", Median(parse_us));
  result.Add("sqlfe.plan_us", "us", Median(plan_us));
  result.Add("sqlfe.exec_ms", "ms", Median(exec_ms));
  result.Add("exec.rows_scanned", "rows", nm > 0 ? rows_scanned / nm : 0);
  result.Add("bee.self_ms", "ms", nm > 0 ? bee_ns / nm / 1e6 : 0);
  AddWorkOpsPerRow(delta, &result);
  AddNativeDeformShare(t0, t1, &result);
  result.Add("bee.query_bees_created", "count",
             (delta("microspec_bee_evp_created_total") +
              delta("microspec_bee_evj_created_total")) /
                 stmts);
  result.Add("bee.query_cache_hit_ratio", "ratio",
             Ratio(delta("microspec_query_bee_cache_hits_total"),
                   delta("microspec_query_bee_cache_misses_total")));
  result.Add("bee.forge_wait_ms", "ms", Median(forge_ms));
  result.Add("bee.forge_compile_s", "s",
             CounterSum(after_setup, "microspec_forge_compile_seconds_total"));
  result.Add("storage.buffer_hit_ratio", "ratio",
             Ratio(delta("microspec_buffer_hits_total"),
                   delta("microspec_buffer_misses_total")));
  result.Add("storage.pages_read", "pages",
             delta("microspec_pages_read_total") / stmts);
  // Mean, not p50: most statements find their pages cached and wait 0.
  result.Add("storage.page_io_wait_ms", "ms", Mean(pio_ms));
  result.Add("storage.heap_pages", "pages", heap_pages);
  // Pages the buffer pool writes back: the side table's INSERTs, evicted.
  result.Add("storage.pages_written", "pages",
             delta("microspec_pages_written_total") / stmts);
  result.Add("storage.fsync_us", "us", FsyncProbeUs(dir));
  // The server layer is the round trip minus the server's statement span,
  // and the client's round trips are the whole the fold divides.
  fold.self_ns["server"] += server_gap_ns;
  fold.root_ns = client_ns;
  AddFold(fold, nm, &result);
  std::vector<double> traced_ms;
  for (const ConnLog& log : traced.conns) {
    traced_ms.insert(traced_ms.end(), log.ms.begin(), log.ms.end());
  }
  const double p50 = Median(ms);
  result.Add("trace.overhead_pct", "%",
             p50 > 0 ? (Median(traced_ms) - p50) / p50 * 100 : 0);
  // Layers the serving path never reaches here: the library-level TPC-H
  // harness (plan builds, EXPLAIN ANALYZE, Gather at dop 1), the WAL,
  // restart and TPC-C.
  AddZeros(&result, "ms",
           {"exec.plan_build_ms", "exec.operator_self_ms",
            "exec.gather_wait_ms", "tpcc.new_order_p50_ms",
            "tpcc.payment_p50_ms", "tpcc.order_status_p50_ms",
            "tpcc.delivery_p50_ms", "tpcc.stock_level_p50_ms"});
  AddZeros(&result, "ratio",
           {"exec.parallel_efficiency", "exec.cpu_inflation"});
  AddZeros(&result, "count",
           {"storage.wal_records_per_txn", "storage.wal_fsyncs_per_txn",
            "storage.recovery_records_scanned", "storage.redo_applied"});
  AddZeros(&result, "bytes", {"storage.wal_bytes_per_txn"});
  AddZeros(&result, "s", {"storage.restart_s"});
  AddZeros(&result, "records/s", {"storage.redo_records_per_s"});
  AddZeros(&result, "us", {"index.lookup_us"});
  return result;
}

}  // namespace perfbench
