// Shared pieces of the microspec benchmark: run arguments, clocks, sample
// statistics, the result record every workload fills, the correctness
// checker (with its self-test), telemetry counter deltas, and the span fold
// that turns a trace into self time per layer.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/tracing.h"
#include "engine/database.h"

namespace perfbench {

using namespace microspec;  // NOLINT: the benchmark drives the whole engine

/// Command line of one run (see README.md).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string data_dir;  // scratch directory for this run's databases
  std::string trace_out;  // where the traced run writes its span JSON
};

// --- clocks -----------------------------------------------------------------

double NowSeconds();         // steady clock
double ProcessCpuSeconds();  // user + system time of this process
double PeakRssMb();          // high-water resident set of this process

/// `n`, capped at the CPUs this process may run on (what `nproc` prints):
/// no workload runs more load threads, connections or workers than that.
int UpToCpus(int n);

// --- sample statistics ------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// One timed operation of a measured window.
struct Sample {
  double done_s;  // NowSeconds() when it completed
  double ms;      // its latency
};

/// The clocks read at one slice boundary of a measured window.
struct Cut {
  double at_s;   // NowSeconds()
  double cpu_s;  // ProcessCpuSeconds()
};

/// Sleeps until `seconds` after `start_s`, reading both clocks at the start
/// and at each of the `slices` equal slice boundaries.
std::vector<Cut> WaitSlices(double start_s, double seconds, int slices);

/// Figures per slice of one or more measured windows. The run reports
/// their medians, so a brief disturbance of the machine moves them less than
/// a whole-window mean would.
class Slices {
 public:
  /// `tail_q` is the quantile tail_ms() reports (0.99 for p99).
  explicit Slices(double tail_q) : tail_q_(tail_q) {}

  /// Adds the slices `cuts` delimit, with the operations completed in each.
  void Add(const std::vector<Sample>& samples, const std::vector<Cut>& cuts);
  /// Median over slices of completions per second.
  double ops_per_s() const { return Median(rate_); }
  /// Median over slices of the slice's median latency.
  double p50_ms() const { return Median(p50_); }
  /// Median over slices of the slice's tail_q latency quantile.
  double tail_ms() const { return Median(tail_); }
  /// Median over slices of process CPU per completed operation.
  double cpu_ms() const { return Median(cpu_); }

 private:
  double tail_q_;
  std::vector<double> rate_;
  std::vector<double> p50_;
  std::vector<double> tail_;
  std::vector<double> cpu_;
};

// --- result -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// What one run prints: counts of operations and checks, and its metrics.
class RunResult {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /// Operations the workload attempted; each failed one also counts here.
  void CountOps(uint64_t attempted, uint64_t failed);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- correctness checks -----------------------------------------------------

/// Runs the run's output checks. A check is a predicate that compares what
/// the program produced with an expected value computed in this run; it is
/// called with perturb=false normally. Under --self-test every check is
/// also called with perturb=true, where it must alter its expected value by
/// one step, and the checker records whether that altered check failed, so
/// a self-test run proves that each check can fail.
class Checker {
 public:
  explicit Checker(bool self_test) : self_test_(self_test) {}

  /// Returns the normal outcome.
  bool Check(const std::string& name, const std::function<bool(bool)>& pred);

  uint64_t checks() const { return checks_; }
  uint64_t failures() const { return failures_; }
  /// Self-test: checks whose perturbed form failed (must equal checks()).
  uint64_t caught() const { return caught_; }
  void PrintSelfTestReport() const;

 private:
  bool self_test_;
  uint64_t checks_ = 0;
  uint64_t failures_ = 0;
  uint64_t caught_ = 0;
  std::vector<std::string> missed_;
};

/// Rows as rendered text, compared as a sorted multiset.
using Rows = std::vector<std::vector<std::string>>;
/// Renders every row `op` produces (Init .. Close).
Result<Rows> CollectRows(Operator* op);
/// Sorted-multiset equality; cells that parse as numbers compare with a
/// relative tolerance of 1e-6 (parallel aggregation sums in another order).
bool SameRows(Rows a, Rows b);
/// `rows` with one cell changed (or one row added when empty): the
/// expected value a self-test check compares against.
Rows PerturbRows(Rows rows);

// --- telemetry --------------------------------------------------------------

/// Sum over every label set of counter/gauge `name` in `snap`, or only
/// over samples whose labels include `key`=`value` when `key` is given.
double CounterSum(const telemetry::TelemetrySnapshot& snap,
                  const std::string& name, const std::string& key = "",
                  const std::string& value = "");

/// Counter deltas between two snapshots of one database.
class CounterDelta {
 public:
  CounterDelta(telemetry::TelemetrySnapshot before,
               telemetry::TelemetrySnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double operator()(const std::string& name, const std::string& key = "",
                    const std::string& value = "") const {
    return CounterSum(after_, name, key, value) -
           CounterSum(before_, name, key, value);
  }

 private:
  telemetry::TelemetrySnapshot before_;
  telemetry::TelemetrySnapshot after_;
};

/// hits / (hits + misses), 0 when there were none.
double Ratio(double hits, double misses);

/// bee.workops_per_row: work-ops per relation-bee invocation (a tuple
/// deformed or formed). TPC-C scans no rows, so rows scanned cannot be the
/// denominator on every workload; the bee invocations can.
void AddWorkOpsPerRow(const CounterDelta& delta, RunResult* result);

/// bee.native_deform_share: the native tier's share of the deform calls
/// (scalar or page-batch) between two snapshots taken with telemetry on.
/// The per-call deform latency histograms count deforms only; the tier
/// counters also count SCL forms, which always run on the program tier.
void AddNativeDeformShare(const telemetry::TelemetrySnapshot& before,
                          const telemetry::TelemetrySnapshot& after,
                          RunResult* result);

/// Adds each of `names` with value 0 and `unit`: the per-layer metrics of a
/// layer the workload never reaches, named so that a metric the workload
/// should report but does not is still caught as missing.
void AddZeros(RunResult* result, const std::string& unit,
              std::initializer_list<const char*> names);

/// Heap pages of every table in the catalog.
double HeapPages(Database* db);

// --- span fold --------------------------------------------------------------

/// Layer names the fold attributes self time to.
inline const char* const kLayers[] = {"server", "sqlfe", "exec",    "bee",
                                      "storage", "index", "workloads/tpcc"};

/// Self time per layer. On each thread every moment is charged to the
/// innermost span open on that thread, so a span's self time is its window
/// minus what spans opened inside it cover; under parallelism the layers add
/// up the busy time of every worker. Bee spans are skipped: they mark a
/// window, not time spent in the bee (deform time stays in the scans'
/// self time). `unattributed_ns` is the time only a
/// root span was open: what the spans leave unattributed.
struct Fold {
  std::map<std::string, double> self_ns;  // layer -> ns
  double root_ns = 0;
  double unattributed_ns = 0;
  void Add(const std::vector<trace::Span>& spans);
};

/// self.<layer>_ms per operation (`ops` operations) for every layer, and
/// self.unattributed_pct of `fold.root_ns`.
void AddFold(const Fold& fold, double ops, RunResult* result);

/// The layer a span belongs to. Spans the benchmark opens around its own
/// calls are named "<layer>:<what>"; the program's own spans map by kind.
std::string LayerOf(const trace::Span& span);

/// Writes `traces` as Chrome trace_event JSON to `path` (best effort).
void WriteTraces(
    const std::string& path,
    const std::vector<std::shared_ptr<const trace::Trace>>& traces);

// --- files ------------------------------------------------------------------

/// Bytes of every regular file under `dir`.
double DirMb(const std::string& dir);
void RemoveDir(const std::string& dir);

// --- workloads --------------------------------------------------------------

RunResult RunTpchParallel(const Args& args, Checker* checker);
RunResult RunTpccMemory(const Args& args, Checker* checker);
RunResult RunSqlWire(const Args& args, Checker* checker);

/// Builds and loads TPC-H at `sf` from `seed` in `dir` (shared by the
/// tpch_parallel and sql_wire workloads). Dies on failure.
std::unique_ptr<Database> LoadTpchDb(const DatabaseOptions& options, double sf,
                                     uint64_t seed);

/// Checks each TPC-H table's row count against TpchRowCounts::At(sf), and
/// lineitem's against the orders it was derived from.
void CheckTpchRowCounts(Database* db, double sf, Checker* checker);

/// Median latency (µs) of 64 small inline-synced commits to a fresh log in
/// `dir`: what one fdatasync costs on the disk the workload writes to.
double FsyncProbeUs(const std::string& dir);

/// Dies with a message when `st` is not OK (set-up must not fail).
void Must(const Status& st, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
