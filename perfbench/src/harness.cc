#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "exec/plan_builder.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/tpch_schema.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int UpToCpus(int n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, std::min(n, cpus));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::vector<Cut> WaitSlices(double start_s, double seconds, int slices) {
  std::vector<Cut> cuts = {{start_s, ProcessCpuSeconds()}};
  for (int k = 1; k <= slices; ++k) {
    const double cut = start_s + seconds * k / slices;
    while (NowSeconds() < cut) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    cuts.push_back({NowSeconds(), ProcessCpuSeconds()});
  }
  return cuts;
}

void Slices::Add(const std::vector<Sample>& samples,
                 const std::vector<Cut>& cuts) {
  const size_t slices = cuts.size() - 1;
  std::vector<std::vector<double>> ms(slices);
  for (const Sample& s : samples) {
    auto it = std::upper_bound(
        cuts.begin(), cuts.end(), s.done_s,
        [](double t, const Cut& c) { return t < c.at_s; });
    const size_t k = static_cast<size_t>(it - cuts.begin());
    if (k >= 1 && k <= slices) ms[k - 1].push_back(s.ms);
  }
  for (size_t k = 0; k < slices; ++k) {
    const double width = cuts[k + 1].at_s - cuts[k].at_s;
    rate_.push_back(static_cast<double>(ms[k].size()) / width);
    if (ms[k].empty()) continue;
    p50_.push_back(Median(ms[k]));
    tail_.push_back(Quantile(ms[k], tail_q_));
    cpu_.push_back((cuts[k + 1].cpu_s - cuts[k].cpu_s) * 1e3 /
                   static_cast<double>(ms[k].size()));
  }
}

void RunResult::Add(const std::string& name, const std::string& unit,
                    double value) {
  metrics_.push_back(Metric{name, unit, value});
}

void RunResult::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Checker::Check(const std::string& name,
                    const std::function<bool(bool)>& pred) {
  ++checks_;
  const bool ok = pred(false);
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "check failed: %s\n", name.c_str());
  }
  if (self_test_) {
    if (!pred(true)) {
      ++caught_;
    } else {
      missed_.push_back(name);
    }
  }
  return ok;
}

void Checker::PrintSelfTestReport() const {
  std::printf("self-test: %llu checks, %llu failed when their expected value "
              "was altered\n",
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(caught_));
  for (const std::string& name : missed_) {
    std::printf("self-test: check '%s' passed with an altered expected "
                "value\n",
                name.c_str());
  }
}

namespace {

std::string RenderCell(Datum d, const ColMeta& meta) {
  char buf[64];
  switch (meta.type) {
    case TypeId::kBool:
      return DatumToBool(d) ? "t" : "f";
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
      return std::to_string(DatumToInt64(d));
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%.17g", DatumToFloat64(d));
      return buf;
    case TypeId::kChar: {
      std::string s(DatumToPointer(d), static_cast<size_t>(meta.attlen));
      while (!s.empty() && s.back() == ' ') s.pop_back();
      return s;
    }
    case TypeId::kVarchar:
      return std::string(VarlenaView(d));
  }
  return "?";
}

/// Parses the whole cell as a number.
bool AsNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool SameCell(const std::string& a, const std::string& b) {
  if (a == b) return true;
  double x = 0;
  double y = 0;
  if (!AsNumber(a, &x) || !AsNumber(b, &y)) return false;
  const double scale = std::max({std::fabs(x), std::fabs(y), 1e-9});
  return std::fabs(x - y) <= 1e-6 * scale;
}

}  // namespace

Result<Rows> CollectRows(Operator* op) {
  Rows rows;
  const std::vector<ColMeta>* meta = nullptr;
  Status st = ForEachRow(op, [&](const Datum* v, const bool* n) {
    if (meta == nullptr) meta = &op->output_meta();
    std::vector<std::string> row;
    row.reserve(meta->size());
    for (size_t i = 0; i < meta->size(); ++i) {
      row.push_back(n != nullptr && n[i] ? "NULL"
                                         : RenderCell(v[i], (*meta)[i]));
    }
    rows.push_back(std::move(row));
  });
  if (!st.ok()) return st;
  return rows;
}

bool SameRows(Rows a, Rows b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameCell(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

Rows PerturbRows(Rows rows) {
  if (rows.empty() || rows[0].empty()) {
    rows.push_back({"perturbed"});
  } else {
    rows[0][0] += "#";
  }
  return rows;
}

double CounterSum(const telemetry::TelemetrySnapshot& snap,
                  const std::string& name, const std::string& key,
                  const std::string& value) {
  double sum = 0;
  for (const telemetry::Sample& s : snap.samples) {
    if (s.name != name || s.kind == telemetry::Sample::Kind::kHistogram) {
      continue;
    }
    if (!key.empty()) {
      auto it = s.labels.find(key);
      if (it == s.labels.end() || it->second != value) continue;
    }
    sum += s.value;
  }
  return sum;
}

double Ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

void AddWorkOpsPerRow(const CounterDelta& delta, RunResult* result) {
  const double calls = delta("microspec_bee_tier_invocations_total");
  result->Add("bee.workops_per_row", "ops/row",
              calls > 0 ? delta("microspec_work_ops_total") / calls : 0);
}

namespace {

double DeformCalls(const telemetry::TelemetrySnapshot& snap,
                   const std::string& tier) {
  double n = 0;
  for (const telemetry::Sample& s : snap.samples) {
    if (s.kind != telemetry::Sample::Kind::kHistogram ||
        s.name != "microspec_bee_deform_latency_ns") {
      continue;
    }
    auto it = s.labels.find("tier");
    if (it != s.labels.end() && it->second == tier) {
      n += static_cast<double>(s.hist.count);
    }
  }
  return n;
}

}  // namespace

void AddNativeDeformShare(const telemetry::TelemetrySnapshot& before,
                          const telemetry::TelemetrySnapshot& after,
                          RunResult* result) {
  result->Add("bee.native_deform_share", "ratio",
              Ratio(DeformCalls(after, "native") - DeformCalls(before, "native"),
                    DeformCalls(after, "program") -
                        DeformCalls(before, "program")));
}

void AddZeros(RunResult* result, const std::string& unit,
              std::initializer_list<const char*> names) {
  for (const char* name : names) result->Add(name, unit, 0);
}

double HeapPages(Database* db) {
  double pages = 0;
  for (TableInfo* t : db->catalog()->AllTables()) {
    pages += static_cast<double>(t->heap()->num_pages());
  }
  return pages;
}

void AddFold(const Fold& fold, double ops, RunResult* result) {
  for (const char* layer : kLayers) {
    std::string name = layer;
    if (name == "workloads/tpcc") name = "tpcc";
    auto it = fold.self_ns.find(layer);
    const double ns = it == fold.self_ns.end() ? 0 : it->second;
    result->Add("self." + name + "_ms", "ms", ops > 0 ? ns / ops / 1e6 : 0);
  }
  result->Add("self.unattributed_pct", "%",
              fold.root_ns > 0 ? fold.unattributed_ns / fold.root_ns * 100
                               : 0);
}

std::string LayerOf(const trace::Span& span) {
  const size_t colon = span.name.find(':');
  if (colon != std::string::npos && colon > 0 &&
      span.name.find(' ') > colon) {
    return span.name.substr(0, colon);
  }
  switch (span.kind) {
    case trace::SpanKind::kSession:
      return "server";
    case trace::SpanKind::kStatement:
    case trace::SpanKind::kParse:
    case trace::SpanKind::kPlan:
    case trace::SpanKind::kDdl:
      return "sqlfe";
    case trace::SpanKind::kExec:
    case trace::SpanKind::kOperator:
    case trace::SpanKind::kFragment:
      return "exec";
    case trace::SpanKind::kBee:
      return "bee";
    case trace::SpanKind::kWait:
      switch (span.wait) {
        case trace::WaitKind::kForge:
          return "bee";
        case trace::WaitKind::kGatherQueue:
          return "exec";
        case trace::WaitKind::kPageIo:
          return "storage";
        case trace::WaitKind::kAdmission:
          return "server";
        case trace::WaitKind::kNone:
          break;
      }
      return "exec";
  }
  return "exec";
}

void Fold::Add(const std::vector<trace::Span>& spans) {
  // A parallel operator's span is a whole-operator window across threads;
  // its per-worker fragment spans stand for it on each thread. Bee spans
  // are windows too (an EVP's prepare..close around the whole operator run,
  // not the time spent in the bee), so they take no part in the fold.
  std::vector<bool> skip(spans.size(), false);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == trace::SpanKind::kBee) skip[i] = true;
  }
  for (const trace::Span& s : spans) {
    if (s.kind == trace::SpanKind::kFragment && s.parent != 0 &&
        s.parent <= spans.size()) {
      skip[s.parent - 1] = true;
    }
  }
  std::map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& s = spans[i];
    if (s.start_ns == 0 || s.end_ns <= s.start_ns) continue;
    if (s.parent == 0) root_ns += static_cast<double>(s.end_ns - s.start_ns);
    if (!skip[i]) by_thread[s.tid].push_back(i);
  }
  // On each thread, every moment belongs to the innermost open span (the
  // one opened last): a span's self time is its window minus what the
  // spans opened inside it on the same thread cover. Spans of one thread
  // nest, so a stack of open spans finds the innermost one.
  for (const auto& [tid, idx] : by_thread) {
    struct Event {
      uint64_t at;
      bool open;
      size_t span;
    };
    std::vector<Event> events;
    for (size_t i : idx) {
      events.push_back({spans[i].start_ns, true, i});
      events.push_back({spans[i].end_ns, false, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.open != b.open) return !a.open;  // closes first
                return a.span < b.span;
              });
    std::vector<size_t> open;
    uint64_t prev = 0;
    for (const Event& e : events) {
      if (!open.empty() && e.at > prev) {
        const trace::Span& inner = spans[open.back()];
        const double d = static_cast<double>(e.at - prev);
        if (inner.parent == 0) {
          unattributed_ns += d;
        } else {
          self_ns[LayerOf(inner)] += d;
        }
      }
      prev = e.at;
      if (e.open) {
        open.push_back(e.span);
      } else {
        auto it = std::find(open.rbegin(), open.rend(), e.span);
        if (it != open.rend()) open.erase(std::next(it).base());
      }
    }
  }
}

void WriteTraces(
    const std::string& path,
    const std::vector<std::shared_ptr<const trace::Trace>>& traces) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << trace::ChromeTraceJson(traces);
}

double DirMb(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += static_cast<double>(it->file_size(ec));
    }
  }
  return bytes / (1024.0 * 1024.0);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void Must(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  std::exit(3);
}

std::unique_ptr<Database> LoadTpchDb(const DatabaseOptions& options,
                                     double sf, uint64_t seed) {
  RemoveDir(options.dir);
  auto db = Database::Open(options);
  Must(db.status(), "open TPC-H database");
  Must(tpch::CreateTpchTables(db.value().get()), "create TPC-H tables");
  Must(tpch::LoadTpch(db.value().get(), sf, seed), "load TPC-H");
  db.value()->QuiesceBees();
  return db.MoveValue();
}

namespace {

uint64_t CountTable(Database* db, const std::string& name) {
  auto ctx = db->MakeContext(db->DefaultSession(), 1);
  Plan plan = Plan::Scan(ctx.get(), db->catalog()->GetTable(name));
  OperatorPtr op = std::move(plan).Build();
  auto n = CountRows(op.get());
  Must(n.status(), "count table");
  return n.value();
}

}  // namespace

void CheckTpchRowCounts(Database* db, double sf, Checker* checker) {
  const tpch::TpchRowCounts c = tpch::TpchRowCounts::At(sf);
  const std::pair<const char*, uint64_t> expected[] = {
      {"region", c.region},     {"nation", c.nation},
      {"supplier", c.supplier}, {"customer", c.customer},
      {"part", c.part},         {"partsupp", c.partsupp},
      {"orders", c.orders}};
  for (const auto& [name, rows] : expected) {
    const uint64_t got = CountTable(db, name);
    checker->Check(std::string("rows(") + name + ")", [&](bool perturb) {
      return got == rows + (perturb ? 1 : 0);
    });
  }
  // lineitem derives from orders: every order has 1..7 lines numbered
  // 1..k, so grouping lineitem by order key must give exactly one group
  // per order, each with count == max(linenumber) in [1, 7], and the
  // groups' counts must add up to lineitem's row count.
  auto ctx = db->MakeContext(db->DefaultSession(), 1);
  Plan plan = Plan::Scan(ctx.get(), db->catalog()->GetTable("lineitem"));
  plan.GroupBy({"l_orderkey"},
               AggList(Ag(AggSpec::CountStar(), "n"),
                       Ag(AggSpec::Max(plan.var("l_linenumber")), "maxline")));
  OperatorPtr op = std::move(plan).Build();
  uint64_t groups = 0;
  uint64_t lines = 0;
  uint64_t malformed = 0;
  Must(ForEachRow(op.get(),
                  [&](const Datum* v, const bool*) {
                    const int64_t n = DatumToInt64(v[1]);
                    const int64_t maxline = DatumToInt64(v[2]);
                    ++groups;
                    lines += static_cast<uint64_t>(n);
                    if (n != maxline || n < 1 || n > 7) ++malformed;
                  }),
       "group lineitem");
  const uint64_t lineitem_rows = CountTable(db, "lineitem");
  checker->Check("rows(lineitem)", [&](bool perturb) {
    return groups == c.orders && malformed == 0 &&
           lines == lineitem_rows + (perturb ? 1 : 0);
  });
}


double FsyncProbeUs(const std::string& dir) {
  const std::string path = dir + "/fsync_probe.wal";
  Wal::Options options;
  options.group_commit = false;  // each Commit syncs inline
  auto wal = Wal::Open(path, options);
  Must(wal.status(), "open fsync probe log");
  std::vector<double> us;
  for (int i = 0; i < 64; ++i) {
    const Wal::AppendResult r =
        wal.value()->Append(WalRecordType::kBegin, 1, 0, "probe");
    const double t0 = NowSeconds();
    Must(wal.value()->Commit(r.end_lsn), "fsync probe commit");
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  wal.value().reset();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return Median(us);
}

}  // namespace perfbench
