// perfbench_driver: times calls into ebv_core's public functions from
// outside the library and prints one JSON object of raw samples on stdout.
// perfbench/run.py prepares the inputs, runs this driver once per workload
// and turns the samples into the benchmark's metrics.
//
//   perfbench_driver partition --snapshot G.ebvs --reference P.ebvp
//       --parts 64 --threads 4 --seconds S --trace 0|1
//   perfbench_driver run --app pr|sssp --snapshot G.ebvs --partition P.ebvp
//       --threads T [--resident-workers K --spill-dir D] --seconds S
//       --trace 0|1
//   perfbench_driver serve-client --socket PATH --daemon-pid N
//       --snapshot G.ebvs --partition P.ebvp --connections C --seconds S
//       --seed N --trace 0|1
//   perfbench_driver stamp
//
// Batch modes warm up once, untimed, then repeat {setup; job} until
// --seconds have passed (at least kMinReps times). With --trace 1 the reps
// alternate untraced and traced: traced reps record a span (name, start,
// end, parent) around every call, kept in memory and printed at the end,
// and run the BSP runtime with phase_stats on. Correctness checks run
// after the timed reps, outside every timer.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/render.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "graph/mapped_graph.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/registry.h"
#include "serve/client.h"

namespace {

using namespace ebv;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
constexpr int kValidatesPerRep = 5;  // pl-partition: setup is validate only

// ---------------------------------------------------------------------------
// Arguments, JSON output, /proc readers.

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (!key.starts_with("--") || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

const std::string& need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t need_uint(const Args& args, const std::string& key) {
  return std::stoull(need(args, key));
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += json_num(values[i]);
  }
  return out + "]";
}

/// Ordered JSON object builder; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return add(key, json_num(v));
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ",";
      out += json_str(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// VmHWM (peak resident set) of a process, in MB; "self" for this one.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

/// utime + stime of another process, in seconds.
double proc_cpu_seconds(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("unreadable /proc/" + pid + "/stat");
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)" start at field 3 (state); utime/stime are 14/15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Spans.

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder. When disarmed, Span objects only time.
class Tracer {
 public:
  bool armed = false;
  std::vector<SpanRecord> spans;

  [[nodiscard]] std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out += i != 0 ? ",[" : "[";
      for (const std::string& field :
           {json_str(spans[i].name), json_num(spans[i].start),
            json_num(spans[i].end), std::to_string(spans[i].parent)}) {
        out += field;
        out += ',';
      }
      out.back() = ']';
    }
    return out + "]";
  }
};

/// Times one call from construction to close() (or destruction) and
/// records it in the tracer when armed; close() returns the duration.
class Span {
 public:
  Span(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(tracer), start_(now_s()) {
    if (tracer_.armed) {
      index_ = static_cast<int>(tracer_.spans.size());
      tracer_.spans.push_back({std::move(name), start_, start_, parent});
    }
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double close() {
    if (!closed_) {
      closed_ = true;
      end_ = now_s();
      if (index_ >= 0) tracer_.spans[static_cast<std::size_t>(index_)].end = end_;
    }
    return end_ - start_;
  }
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  double start_;
  double end_ = 0.0;
  int index_ = -1;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Samples shared by the batch modes.

struct Checks {
  std::vector<std::string> json;
  bool all_ok = true;
  void add(const std::string& name, bool ok, const std::string& detail) {
    all_ok = all_ok && ok;
    json.push_back(JsonObject()
                       .add("name", json_str(name))
                       .add("ok", ok ? "true" : "false")
                       .add("detail", json_str(detail))
                       .str());
  }
  [[nodiscard]] std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < json.size(); ++i) {
      out += (i != 0 ? "," : "") + json[i];
    }
    return out + "]";
  }
};

/// Per-rep samples; traced reps also carry their layer numbers.
struct BatchSamples {
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<double> cpu_s;
  std::vector<double> untraced_total_s;  // setup + job of untraced reps
  std::vector<double> traced_total_s;    // setup + job of traced reps
  std::vector<std::string> layers;       // one JSON object per traced rep
  int attempted = 0;
  int failed = 0;
};

/// Runs `rep(traced)` until `seconds` have passed and at least kMinReps
/// untraced (and, with trace, kMinReps traced) reps are done. With trace
/// the reps alternate untraced/traced so both see the same conditions.
/// Returns the peak RSS (MB) after the first kMinReps reps: the number of
/// reps depends on speed, and a later rep can raise the high-water mark.
template <typename Rep>
double repeat_for(double seconds, bool trace, const Rep& rep) {
  const double start = now_s();
  double peak_mb = 0.0;
  int untraced = 0;
  int traced = 0;
  for (int i = 0;; ++i) {
    const bool traced_rep = trace && i % 2 == 1;
    rep(traced_rep);
    if (i + 1 == kMinReps) peak_mb = vm_hwm_mb("self");
    (traced_rep ? traced : untraced) += 1;
    const bool enough =
        untraced >= kMinReps && (!trace || traced >= kMinReps);
    if (enough && now_s() - start >= seconds) return peak_mb;
  }
}

std::string batch_json(const BatchSamples& s, const Tracer& tracer,
                       const Checks& checks, JsonObject extra) {
  std::string layers = "[";
  for (std::size_t i = 0; i < s.layers.size(); ++i) {
    layers += (i != 0 ? "," : "") + s.layers[i];
  }
  layers += "]";
  return extra.add("setup_s", json_list(s.setup_s))
      .add("job_s", json_list(s.job_s))
      .add("cpu_s", json_list(s.cpu_s))
      .add("untraced_total_s", json_list(s.untraced_total_s))
      .add("traced_total_s", json_list(s.traced_total_s))
      .add("layers", layers)
      .add("spans", tracer.to_json())
      .add("checks", checks.to_json())
      .num("attempted", s.attempted)
      .num("failed", s.failed)
      .str();
}

JsonObject quality_json(const PartitionMetrics& m) {
  JsonObject q;
  q.num("replication_factor", m.replication_factor)
      .num("edge_imbalance", m.edge_imbalance)
      .num("vertex_imbalance", m.vertex_imbalance);
  return q;
}

// ---------------------------------------------------------------------------
// pl-partition: EBV over a mapped snapshot.

int cmd_partition(const Args& args) {
  const MappedGraph mapped(need(args, "snapshot"));
  const GraphView view = mapped.view();
  const double seconds = std::stod(need(args, "seconds"));
  const bool trace = need(args, "trace") != "0";
  PartitionConfig config;
  config.num_parts = static_cast<PartitionId>(need_uint(args, "parts"));
  config.num_threads = static_cast<std::uint32_t>(need_uint(args, "threads"));
  if (config.num_threads > 1) request_global_threads(config.num_threads);
  const auto partitioner = make_partitioner("ebv");

  Tracer tracer;
  BatchSamples s;
  EdgePartition last;
  PartitionMetrics metrics;
  std::vector<std::uint64_t> hashes;
  std::vector<double> replication;

  // Warm-up, untimed: pages in the snapshot and grows the heap, so the
  // first timed rep is not the only cold one.
  mapped.validate();
  (void)partitioner->partition_view(view, config);

  const double peak = repeat_for(seconds, trace, [&](bool traced) {
    tracer.armed = traced;
    ++s.attempted;
    double setup = 0.0;
    {
      Span setup_span(tracer, "setup");
      for (int k = 0; k < kValidatesPerRep; ++k) {
        Span validate(tracer, "graph.validate", setup_span.index());
        mapped.validate();
        const double t = validate.close();
        if (!traced) s.setup_s.push_back(t);
        setup += t;
      }
    }
    double edge_order_s = 0.0;
    if (traced) {
      // A separate make_edge_order call, outside the job, so the score
      // phase of partition_view can be derived without tracing inside it.
      Span order(tracer, "partition.edge_order");
      (void)make_edge_order(view, config.edge_order, config.seed,
                            config.num_threads);
      edge_order_s = order.close();
    }
    const double cpu0 = process_cpu_seconds();
    Span job(tracer, "job");
    Span part(tracer, "partition.partition_view", job.index());
    EdgePartition result = partitioner->partition_view(view, config);
    const double part_s = part.close();
    const double part_cpu = process_cpu_seconds() - cpu0;
    Span met(tracer, "partition.metrics", job.index());
    metrics = compute_metrics(view, result);
    const double metrics_s = met.close();
    const double job_s = job.close();
    const double cpu = process_cpu_seconds() - cpu0;
    if (traced) {
      s.traced_total_s.push_back(setup / kValidatesPerRep + job_s);
      s.layers.push_back(
          JsonObject()
              .num("graph.validate_s", setup / kValidatesPerRep)
              .num("partition.edge_order_s", edge_order_s)
              .num("partition.score_s", part_s - edge_order_s)
              .num("partition.cpu_per_wall", part_cpu / part_s)
              .num("partition.metrics_s", metrics_s)
              .str());
    } else {
      s.job_s.push_back(job_s);
      s.cpu_s.push_back(cpu);
      s.untraced_total_s.push_back(setup / kValidatesPerRep + job_s);
    }
    hashes.push_back(fnv1a(result.part_of_edge.data(),
                           result.part_of_edge.size() * sizeof(PartitionId)));
    replication.push_back(metrics.replication_factor);
    last = std::move(result);
  });
  tracer.armed = false;

  Checks checks;
  const EdgePartition reference =
      io::read_partition_binary_file(need(args, "reference"));
  const bool equal = reference.num_parts == last.num_parts &&
                     reference.part_of_edge == last.part_of_edge;
  checks.add("assignment_equals_1_thread_ebvp", equal,
             equal ? "byte-equal to the prepared --threads 1 EBVP"
                   : "differs from the prepared --threads 1 EBVP");
  const bool stable =
      std::all_of(hashes.begin(), hashes.end(),
                  [&](std::uint64_t h) { return h == hashes.front(); }) &&
      std::all_of(replication.begin(), replication.end(),
                  [&](double r) { return r == replication.front(); });
  checks.add("reps_identical", stable,
             std::to_string(hashes.size()) + " reps, one assignment");
  if (!equal || !stable) s.failed = s.attempted;

  std::cout << batch_json(s, tracer, checks,
                          JsonObject()
                              .num("peak_rss_mb", peak)
                              .add("quality", quality_json(metrics).str()))
            << "\n";
  return checks.all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// pl-pagerank / road-sssp-spill: BSP over a prepared partition.

std::string bsp_layers(const bsp::RunStats& stats, double run_s, double cpu,
                       double read_s, double distribute_s, double validate_s,
                       double render_s, double spill_mb) {
  bsp::PhaseWallStats sum;
  for (const bsp::PhaseWallStats& p : stats.phase_wall) {
    sum.compute_seconds += p.compute_seconds;
    sum.route_seconds += p.route_seconds;
    sum.merge_seconds += p.merge_seconds;
    sum.broadcast_seconds += p.broadcast_seconds;
    sum.install_seconds += p.install_seconds;
    sum.load_seconds += p.load_seconds;
    sum.release_seconds += p.release_seconds;
  }
  const double steps = std::max<double>(1.0, stats.supersteps);
  return JsonObject()
      .num("graph.validate_s", validate_s)
      .num("bsp.read_partition_s", read_s)
      .num("bsp.distribute_s", distribute_s)
      .num("bsp.spill_mb", spill_mb)
      .num("bsp.run_s", run_s)
      .num("bsp.supersteps", stats.supersteps)
      .num("bsp.superstep_ms", run_s * 1e3 / steps)
      .num("bsp.messages_per_s",
           static_cast<double>(stats.total_messages) / run_s)
      .num("bsp.cpu_per_wall", cpu / run_s)
      .num("bsp.phase.compute_s", sum.compute_seconds)
      .num("bsp.phase.route_s", sum.route_seconds)
      .num("bsp.phase.merge_s", sum.merge_seconds)
      .num("bsp.phase.broadcast_s", sum.broadcast_seconds)
      .num("bsp.phase.install_s", sum.install_seconds)
      .num("bsp.phase.load_s", sum.load_seconds)
      .num("bsp.phase.release_s", sum.release_seconds)
      .num("analysis.render_s", render_s)
      .str();
}

double message_imbalance(const bsp::RunStats& stats) {
  const auto& per = stats.messages_sent_per_worker;
  if (per.empty()) return 0.0;
  double total = 0.0;
  double max = 0.0;
  for (const std::uint64_t m : per) {
    total += static_cast<double>(m);
    max = std::max(max, static_cast<double>(m));
  }
  return total == 0.0 ? 0.0 : max / (total / static_cast<double>(per.size()));
}

int cmd_run(const Args& args) {
  const std::string app = need(args, "app");
  if (app != "pr" && app != "sssp") {
    throw std::invalid_argument("--app must be pr or sssp");
  }
  const std::string snapshot = need(args, "snapshot");
  const std::string partition_path = need(args, "partition");
  const double seconds = std::stod(need(args, "seconds"));
  const bool trace = need(args, "trace") != "0";
  const auto threads = static_cast<std::uint32_t>(need_uint(args, "threads"));
  const auto resident = static_cast<std::uint32_t>(
      args.count("resident-workers") != 0 ? need_uint(args, "resident-workers")
                                          : 0);
  const std::string spill_dir =
      args.count("spill-dir") != 0 ? need(args, "spill-dir") : std::string();

  const MappedGraph mapped(snapshot);
  const GraphView view = mapped.view();
  bsp::RunOptions options;
  if (threads > 1) {
    request_global_threads(threads);
    options.policy = bsp::ExecutionPolicy::kParallel;
    options.num_threads = threads;
  }
  options.resident_workers = resident;
  options.spill_dir = spill_dir;

  const apps::PageRank pagerank(view.num_vertices(), 20);
  const apps::Sssp sssp(0);
  const bsp::SubgraphProgram& program =
      app == "pr" ? static_cast<const bsp::SubgraphProgram&>(pagerank) : sssp;

  // Input preparation, before any timer: the metrics table format_run_table
  // renders is a property of the prepared partition, not of the job.
  analysis::ExperimentResult result;
  result.partitioner = "file";
  {
    const EdgePartition partition =
        io::read_partition_binary_file(partition_path);
    result.num_parts = partition.num_parts;
    result.metrics = compute_metrics(view, partition);
  }
  const bool spill = resident > 0 && resident < result.num_parts;
  if (spill && spill_dir.empty()) {
    throw std::invalid_argument("a binding --resident-workers needs --spill-dir");
  }

  Tracer tracer;
  BatchSamples s;
  std::vector<std::uint64_t> value_hashes;
  std::vector<std::string> comm;  // deterministic counters, one per rep
  std::string rendered;
  int rep_index = 0;

  // Warm-up, untimed: one setup pages in the snapshot and grows the heap to
  // what a DistributedGraph needs. Without it the first timed setup of a
  // run was the slowest, by up to 40%.
  {
    const std::string warm_path =
        spill ? (std::filesystem::path(spill_dir) / "workers.warmup.ebvw")
                    .string()
              : std::string();
    mapped.validate();
    {
      const EdgePartition partition =
          io::read_partition_binary_file(partition_path);
      const bsp::DistributedGraph dist(view, partition,
                                       {.spill_path = warm_path});
    }
    if (spill) std::filesystem::remove(warm_path);
  }

  const double peak = repeat_for(seconds, trace, [&](bool traced) {
    tracer.armed = traced;
    ++s.attempted;
    const std::string spill_path =
        spill ? (std::filesystem::path(spill_dir) /
                 ("workers." + std::to_string(rep_index++) + ".ebvw"))
                    .string()
              : std::string();
    Span setup(tracer, "setup");
    Span validate(tracer, "graph.validate", setup.index());
    mapped.validate();
    const double validate_s = validate.close();
    Span read(tracer, "bsp.read_partition", setup.index());
    const EdgePartition partition =
        io::read_partition_binary_file(partition_path);
    const double read_s = read.close();
    Span distribute(tracer, "bsp.distribute", setup.index());
    const bsp::DistributedGraph dist(view, partition,
                                     {.spill_path = spill_path});
    const double distribute_s = distribute.close();
    const double setup_s = setup.close();
    const double spill_mb =
        spill ? static_cast<double>(std::filesystem::file_size(spill_path)) /
                    (1024.0 * 1024.0)
              : 0.0;

    bsp::RunOptions run_options = options;
    run_options.phase_stats = traced;
    const bsp::BspRuntime runtime(run_options);
    const double cpu0 = process_cpu_seconds();
    Span job(tracer, "job");
    Span run(tracer, "bsp.run", job.index());
    result.run = runtime.run(dist, program);
    const double run_s = run.close();
    const double run_cpu = process_cpu_seconds() - cpu0;
    Span render(tracer, "analysis.render", job.index());
    rendered = analysis::format_run_table(app, result, false);
    const double render_s = render.close();
    const double job_s = job.close();
    const double cpu = process_cpu_seconds() - cpu0;

    if (traced) {
      s.traced_total_s.push_back(setup_s + job_s);
      s.layers.push_back(bsp_layers(result.run, run_s, run_cpu, read_s,
                                    distribute_s, validate_s, render_s,
                                    spill_mb));
    } else {
      s.setup_s.push_back(setup_s);
      s.job_s.push_back(job_s);
      s.cpu_s.push_back(cpu);
      s.untraced_total_s.push_back(setup_s + job_s);
    }
    const auto& v = result.run.values;
    value_hashes.push_back(fnv1a(v.data(), v.size() * sizeof(bsp::Value)));
    comm.push_back(std::to_string(result.run.total_messages) + "/" +
                   json_num(result.run.execution_seconds) + "/" +
                   std::to_string(result.run.supersteps) + "/" +
                   json_num(message_imbalance(result.run)));
    if (spill) std::filesystem::remove(spill_path);
    if (rendered.empty()) ++s.failed;
  });
  tracer.armed = false;
  const bsp::RunStats last = std::move(result.run);

  // Correctness, outside every timer.
  Checks checks;
  const Graph resident_graph = io::read_snapshot_file(snapshot);
  if (app == "pr") {
    // Vertices no edge covers belong to no worker and keep init_value
    // (RunStats::values); every other vertex must match power iteration.
    const auto expected = apps::pagerank_reference(resident_graph, 20);
    const bsp::Value init = pagerank.init_value(0);
    double worst = 0.0;
    bool ok = expected.size() == last.values.size();
    for (VertexId v = 0; ok && v < expected.size(); ++v) {
      if (view.degree(v) == 0) {
        ok = last.values[v] == init;
        continue;
      }
      const double err = std::abs(last.values[v] - expected[v]);
      worst = std::max(worst, err / expected[v]);
      ok = err <= 1e-9 * expected[v];
    }
    checks.add("pagerank_matches_reference", ok,
               "max relative error " + json_num(worst) +
                   " on covered vertices (tolerance 1e-9 relative); "
                   "uncovered vertices keep init_value");
  } else {
    const auto expected = apps::sssp_reference(resident_graph, 0);
    const bool ok = expected == last.values;
    checks.add("sssp_equals_reference", ok,
               ok ? "distances exactly equal" : "distances differ");
  }
  const bool stable =
      std::all_of(value_hashes.begin(), value_hashes.end(),
                  [&](std::uint64_t h) { return h == value_hashes.front(); }) &&
      std::all_of(comm.begin(), comm.end(),
                  [&](const std::string& c) { return c == comm.front(); });
  checks.add("reps_identical", stable,
             std::to_string(comm.size()) +
                 " reps, identical values and counters (" + comm.front() + ")");
  if (!checks.all_ok) s.failed = s.attempted;

  JsonObject bsp_json;
  bsp_json.num("messages", static_cast<double>(last.total_messages))
      .num("message_imbalance", message_imbalance(last))
      .num("sim_exec_s", last.execution_seconds)
      .num("supersteps", last.supersteps);
  std::cout << batch_json(s, tracer, checks,
                          JsonObject()
                              .num("peak_rss_mb", peak)
                              .add("quality", quality_json(result.metrics).str())
                              .add("bsp", bsp_json.str()))
            << "\n";
  return checks.all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-lookups: closed-loop EBVQ client against a running daemon.

enum class Op : std::uint8_t { kDegree, kNeighbors, kReplicas, kPartition };
constexpr const char* kOpNames[] = {"degree", "neighbors", "replicas",
                                    "partition"};
constexpr std::uint32_t kBatch = 64;
constexpr std::uint64_t kSampleEvery = 8;  // responses kept for checking

struct Sample {
  Op op = Op::kDegree;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> answer;  // flattened response
  bool truncated = false;
};

struct Connection {
  std::vector<float> latency_ms[4];
  std::vector<Sample> samples;
  std::vector<SpanRecord> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t transport_errors = 0;
  std::string first_error;
};

void client_loop(const std::string& socket, const GraphView& view,
                 std::uint64_t seed, std::uint32_t index, bool trace,
                 std::barrier<>& start, const std::atomic<double>& deadline,
                 Connection& conn) {
  std::unique_ptr<serve::Client> client;
  try {
    client = std::make_unique<serve::Client>(socket);
  } catch (const std::exception& e) {
    conn.first_error = e.what();
  }
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + index + 1);
  std::uniform_int_distribution<VertexId> vertex(0, view.num_vertices() - 1);
  std::uniform_int_distribution<EdgeId> edge(0, view.num_edges() - 1);
  start.arrive_and_wait();
  if (!client) {
    conn.attempted = conn.failed = conn.transport_errors = 1;
    return;
  }
  // Equal shares in a seeded random order: each block of four requests is
  // a shuffle of the four types, so neither connection locks into a fixed
  // phase against the other or against the daemon's idle parking.
  std::array<Op, 4> block = {Op::kDegree, Op::kNeighbors, Op::kReplicas,
                             Op::kPartition};
  for (std::uint64_t i = 0; now_s() < deadline.load(); ++i) {
    if (i % 4 == 0) std::shuffle(block.begin(), block.end(), rng);
    const Op op = block[i % 4];
    Sample sample;
    sample.op = op;
    if (op == Op::kNeighbors) {
      const Edge& e = view.edge(edge(rng));
      sample.ids.push_back((rng() & 1) != 0 ? e.src : e.dst);
    } else {
      sample.ids.resize(kBatch);
      for (auto& id : sample.ids) id = op == Op::kPartition ? edge(rng) : vertex(rng);
    }
    const auto k = static_cast<std::size_t>(op);
    const bool keep = conn.latency_ms[k].size() % kSampleEvery == 0;
    ++conn.attempted;
    // Only the Client call is timed; building the request and keeping the
    // answer of a sampled request happen outside [t0, t1].
    double t0 = 0.0;
    double t1 = 0.0;
    const auto timed = [&](const auto& call) {
      t0 = now_s();
      auto response = call();
      t1 = now_s();
      return response;
    };
    try {
      switch (op) {
        case Op::kDegree: {
          serve::DegreeRequest req;
          req.vertices.assign(sample.ids.begin(), sample.ids.end());
          const auto resp = timed([&] { return client->degrees(req); });
          for (std::size_t j = 0; keep && j < resp.size(); ++j) {
            sample.answer.push_back(resp[j].out_degree);
            sample.answer.push_back(resp[j].in_degree);
          }
          break;
        }
        case Op::kNeighbors: {
          serve::NeighborsRequest req;
          req.source = static_cast<VertexId>(sample.ids[0]);
          req.hops = 1;
          const auto resp = timed([&] { return client->neighbors(req); });
          sample.truncated = resp.truncated;
          if (keep) {
            sample.answer.assign(resp.vertices.begin(), resp.vertices.end());
          }
          break;
        }
        case Op::kReplicas: {
          serve::ReplicasRequest req;
          req.vertices.assign(sample.ids.begin(), sample.ids.end());
          const auto resp = timed([&] { return client->replicas(req); });
          for (std::size_t j = 0; keep && j < resp.size(); ++j) {
            sample.answer.push_back(resp[j].master);
            sample.answer.push_back(resp[j].parts.size());
            sample.answer.insert(sample.answer.end(), resp[j].parts.begin(),
                                 resp[j].parts.end());
          }
          break;
        }
        case Op::kPartition: {
          serve::PartitionRequest req;
          req.edges.assign(sample.ids.begin(), sample.ids.end());
          const auto resp = timed([&] { return client->partition_of(req); });
          if (keep) sample.answer.assign(resp.begin(), resp.end());
          break;
        }
      }
    } catch (const serve::ServeError& e) {
      ++conn.failed;
      if (e.status() == serve::Status::kOverloaded) ++conn.overloaded;
      if (conn.first_error.empty()) conn.first_error = e.what();
      continue;
    } catch (const std::exception& e) {
      // A transport error leaves the stream unusable: stop this connection.
      ++conn.failed;
      ++conn.transport_errors;
      if (conn.first_error.empty()) conn.first_error = e.what();
      break;
    }
    conn.latency_ms[k].push_back(static_cast<float>((t1 - t0) * 1e3));
    if (trace) {
      conn.spans.push_back({std::string("serve.") + kOpNames[k], t0, t1, 0});
    }
    if (keep) conn.samples.push_back(std::move(sample));
  }
}

/// Expected 1-hop answer, mirroring the daemon's documented bounded BFS
/// (source first, then out-neighbours in CSR order, stop at `limit`).
std::vector<std::uint64_t> expected_neighbors(const MappedGraph& mapped,
                                              VertexId source,
                                              std::uint32_t limit,
                                              bool& truncated) {
  const auto offsets = mapped.csr_offsets();
  const auto edges = mapped.edges();
  std::vector<std::uint64_t> visited{source};
  truncated = false;
  for (std::uint64_t e = offsets[source]; e != offsets[source + 1]; ++e) {
    const VertexId v = edges[e].dst;
    if (std::find(visited.begin(), visited.end(), v) != visited.end()) {
      continue;
    }
    if (visited.size() >= limit) {
      truncated = true;
      break;
    }
    visited.push_back(v);
  }
  std::sort(visited.begin(), visited.end());
  return visited;
}

int cmd_serve_client(const Args& args) {
  const std::string socket = need(args, "socket");
  const std::string pid = need(args, "daemon-pid");
  const double seconds = std::stod(need(args, "seconds"));
  const bool trace = need(args, "trace") != "0";
  const auto seed = need_uint(args, "seed");
  const auto connections =
      static_cast<std::uint32_t>(need_uint(args, "connections"));
  const MappedGraph mapped(need(args, "snapshot"));
  const GraphView view = mapped.view();

  std::vector<Connection> conns(connections);
  std::barrier<> start(static_cast<std::ptrdiff_t>(connections) + 1);
  std::atomic<double> deadline{0.0};
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back(client_loop, std::cref(socket), std::cref(view), seed,
                         c, trace, std::ref(start), std::cref(deadline),
                         std::ref(conns[c]));
  }
  const double cpu0 = proc_cpu_seconds(pid);
  const double window_start = now_s();
  deadline.store(window_start + seconds);
  start.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double window_s = now_s() - window_start;
  const double daemon_cpu = proc_cpu_seconds(pid) - cpu0;
  const double daemon_peak = vm_hwm_mb(pid);

  // One live metrics request after the window.
  std::string metrics_text;
  try {
    serve::Client client(socket);
    metrics_text = client.metrics();
  } catch (const std::exception& e) {
    metrics_text = std::string("error: ") + e.what();
  }

  // Verification against the mapped graph, the EBVP and the routing
  // tables a DistributedGraph builds from them, outside the window.
  Checks checks;
  const EdgePartition partition =
      io::read_partition_binary_file(need(args, "partition"));
  const bsp::DistributedGraph routing(view, partition);
  const auto neighbor_limit =
      static_cast<std::uint32_t>(need_uint(args, "neighbor-limit"));
  std::uint64_t checked[4] = {0, 0, 0, 0};
  std::uint64_t wrong[4] = {0, 0, 0, 0};
  for (const Connection& conn : conns) {
    for (const Sample& sample : conn.samples) {
      std::vector<std::uint64_t> expect;
      bool truncated = false;
      switch (sample.op) {
        case Op::kDegree:
          for (const auto v : sample.ids) {
            expect.push_back(view.out_degree(static_cast<VertexId>(v)));
            expect.push_back(view.in_degree(static_cast<VertexId>(v)));
          }
          break;
        case Op::kNeighbors:
          expect = expected_neighbors(mapped,
                                      static_cast<VertexId>(sample.ids[0]),
                                      neighbor_limit, truncated);
          break;
        case Op::kReplicas:
          for (const auto v : sample.ids) {
            const auto parts = routing.parts_of(static_cast<VertexId>(v));
            expect.push_back(routing.master_of(static_cast<VertexId>(v)));
            expect.push_back(parts.size());
            expect.insert(expect.end(), parts.begin(), parts.end());
          }
          break;
        case Op::kPartition:
          for (const auto e : sample.ids) {
            expect.push_back(partition.part_of_edge[e]);
          }
          break;
      }
      const auto k = static_cast<int>(sample.op);
      ++checked[k];
      if (expect != sample.answer || truncated != sample.truncated) ++wrong[k];
    }
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed or refused calls, plus wrong answers
  for (int k = 0; k < 4; ++k) {
    checks.add(std::string(kOpNames[k]) + "_responses_match", wrong[k] == 0,
               std::to_string(checked[k]) + " sampled responses, " +
                   std::to_string(wrong[k]) + " wrong");
    failed += wrong[k];
  }
  std::uint64_t overloaded = 0;
  std::uint64_t transport = 0;
  std::string first_error;
  for (const Connection& conn : conns) {
    attempted += conn.attempted;
    failed += conn.failed;
    overloaded += conn.overloaded;
    transport += conn.transport_errors;
    if (first_error.empty()) first_error = conn.first_error;
  }
  checks.add("metrics_endpoint", !metrics_text.starts_with("error: "),
             metrics_text.starts_with("error: ") ? metrics_text
                                                 : "one live EBVQ metrics reply");

  std::string latency = "{";
  for (int k = 0; k < 4; ++k) {
    std::vector<double> all;
    for (const Connection& conn : conns) {
      all.insert(all.end(), conn.latency_ms[k].begin(),
                 conn.latency_ms[k].end());
    }
    latency += std::string(k != 0 ? "," : "") + json_str(kOpNames[k]) + ":" +
               json_list(all);
  }
  latency += "}";
  Tracer tracer;
  for (std::uint32_t c = 0; c < connections; ++c) {
    const int parent = static_cast<int>(tracer.spans.size());
    tracer.spans.push_back({"serve.connection." + std::to_string(c),
                            window_start, window_start + window_s, -1});
    for (SpanRecord span : conns[c].spans) {
      span.parent = parent;
      tracer.spans.push_back(std::move(span));
    }
  }

  std::cout << JsonObject()
                   .num("window_s", window_s)
                   .num("daemon_cpu_s", daemon_cpu)
                   .num("daemon_peak_rss_mb", daemon_peak)
                   .add("latency_ms", latency)
                   .num("overloaded", static_cast<double>(overloaded))
                   .num("transport_errors", static_cast<double>(transport))
                   .add("first_error", json_str(first_error))
                   .add("quality", quality_json(compute_metrics(view, partition)).str())
                   .add("metrics_text", json_str(metrics_text))
                   .add("spans", tracer.to_json())
                   .add("checks", checks.to_json())
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .str()
            << "\n";
  return checks.all_ok ? 0 : 1;
}

int cmd_stamp() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << JsonObject()
                   .add("compiler", json_str(compiler))
                   .add("build_type", json_str(PERFBENCH_BUILD_TYPE))
                   .num("nproc", std::thread::hardware_concurrency())
                   .str()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver partition|run|serve-client|stamp "
                 "[--flag value ...]\n";
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const Args args = parse_args(argc, argv);
    if (mode == "partition") return cmd_partition(args);
    if (mode == "run") return cmd_run(args);
    if (mode == "serve-client") return cmd_serve_client(args);
    if (mode == "stamp") return cmd_stamp();
    std::cerr << "unknown mode: " << mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
