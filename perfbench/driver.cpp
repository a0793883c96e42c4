// numarck-perfbench — closed-loop checkpoint-and-restart benchmark.
//
// One client in one process issues each operation after the previous one
// returns, as a simulation waiting on its checkpoint does. Two workloads
// (see perfbench/README.md for why each exists):
//
//   flash-restart  FLASH-like 64^3 hydro, ten variables: stores with chain
//                  depths 0..4, each written and then cold-restored at every
//                  depth;
//   cmip5-store    nine climate variables on the 90x144 grid, one entry per
//                  day: put every day, cold restore every k days, prune every
//                  m days, in fresh stores replaying the same days.
//
// The library only ever sees the generated inputs. Every restore is checked
// bit for bit against a replay of its chain that was itself checked against
// the inputs (Bench::verify_chain), every delta record's max change-ratio
// error against E, and every put/get/prune that throws counts as failed.
//
// With --trace 1 the same calls are made through the library's public stage
// functions inside spans (trace.hpp); traced and untraced passes alternate
// and must write byte-identical containers. The last stdout line is the
// result object; the line before it records the run environment.

#include <sys/statfs.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "numarck/arch/arch.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/bin_model.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/core/compressor.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/sim/climate/generator.hpp"
#include "numarck/sim/flash/simulator.hpp"
#include "numarck/store/checkpoint_store.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/thread_pool.hpp"
#include "trace.hpp"

namespace nk = numarck;
namespace fs = std::filesystem;
using perfbench::now_s;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

std::atomic<std::uint64_t> g_fsync_ns{0};
std::atomic<std::uint64_t> g_fsync_calls{0};

/// Wall time spent blocked in fsync so far, in seconds.
double fsync_s() { return static_cast<double>(g_fsync_ns.load()) * 1e-9; }

}  // namespace

/// Every fsync the library makes — container, manifest and directory — goes
/// through this definition, which the linker prefers over libc's. It makes
/// the same system call and adds its wall time to a counter, so end-to-end
/// times can leave out time that measures the host's disk (README.md,
/// "Store location and fsync").
extern "C" int fsync(int fd) {
  const auto t0 = std::chrono::steady_clock::now();
  const long rc = ::syscall(SYS_fsync, fd);
  g_fsync_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++g_fsync_calls;
  return static_cast<int>(rc);
}

/// The worker count the library sees as the machine's core count: it sizes
/// the process-global pool that restores decode on (the restart API takes
/// no pool) and caps every pool's chunk plans. It is every online CPU during
/// set-up and the workload's worker count from the timed loop on, before the
/// global pool is made. This definition is preferred over libstdc++'s for
/// the library's calls, as fsync's is over libc's.
unsigned g_workers = 1;

unsigned std::thread::hardware_concurrency() noexcept { return g_workers; }

namespace {

unsigned online_cpus() {
  return static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

// ------------------------------------------------------------------ inputs --

/// One snapshot: a value vector per variable, in Sequence::vars order.
using Snapshot = std::vector<std::vector<double>>;
using State = std::map<std::string, std::vector<double>>;

struct Sequence {
  std::vector<std::string> vars;
  std::vector<Snapshot> snaps;
  std::vector<double> times;
  std::size_t points = 0;

  [[nodiscard]] double raw_bytes() const {
    return static_cast<double>(points * sizeof(double) * vars.size());
  }
};

std::uint32_t crc_values(std::uint32_t h, const std::vector<double>& x) {
  return nk::util::crc32_update(h, x.data(), x.size() * sizeof(double));
}

/// CRC-32 of every snapshot of `seq`, chained in order: tells inputs apart.
std::uint32_t digest(const Sequence& seq) {
  std::uint32_t h = nk::util::kCrc32Init;
  for (const Snapshot& s : seq.snaps) {
    for (const auto& v : s) {
      h = crc_values(h, v);
    }
  }
  return h;
}

/// FLASH-like smooth-wave hydro at 64^3 (32^3 in --quick): the seed sets the
/// mode phases, the configuration is fixed.
Sequence flash_sequence(std::uint64_t seed, std::size_t count, bool quick) {
  nk::sim::flash::SimulatorConfig cfg;
  cfg.mesh.blocks_per_dim = quick ? 2 : 4;
  cfg.mesh.block_interior = 16;
  cfg.mesh.guard = 4;
  cfg.problem.problem = nk::sim::flash::Problem::kSmoothWaves;
  cfg.problem.seed = seed;
  cfg.problem.wave_mach = 0.3;
  cfg.problem.wave_bulk_mach = 0.5;
  cfg.problem.wave_density_contrast = 0.2;
  cfg.steps_per_checkpoint = 2;
  nk::util::ThreadPool pool(online_cpus());
  nk::sim::flash::Simulator sim(cfg, &pool);
  Sequence seq;
  seq.vars = nk::sim::flash::Simulator::variable_names();
  seq.points = sim.point_count();
  for (std::size_t it = 0; it < count; ++it) {
    if (it > 0) sim.advance_checkpoint();
    Snapshot snap;
    for (const auto& v : seq.vars) snap.push_back(sim.snapshot(v));
    seq.snaps.push_back(std::move(snap));
    seq.times.push_back(sim.time());
  }
  return seq;
}

/// Nine CMIP5-like variables, one snapshot per simulated day.
Sequence climate_sequence(std::uint64_t seed, std::size_t days, bool quick) {
  using nk::sim::climate::Variable;
  const Variable all[] = {Variable::kRlus, Variable::kRlds, Variable::kMrsos,
                          Variable::kMrro, Variable::kMc,   Variable::kAbs550aer,
                          Variable::kTas,  Variable::kPr,   Variable::kHuss};
  nk::sim::climate::GeneratorConfig cfg;
  cfg.seed = seed;
  if (quick) {
    cfg.grid.nlat = 45;
    cfg.grid.nlon = 72;
  }
  std::vector<nk::sim::climate::Generator> gens;
  Sequence seq;
  for (Variable v : all) {
    gens.emplace_back(v, cfg);
    seq.vars.emplace_back(nk::sim::climate::to_string(v));
  }
  seq.points = gens.front().point_count();
  for (std::size_t d = 0; d < days; ++d) {
    Snapshot snap;
    for (auto& g : gens) snap.push_back(d == 0 ? g.current() : g.advance());
    seq.snaps.push_back(std::move(snap));
    seq.times.push_back(static_cast<double>(d));
  }
  return seq;
}

// ----------------------------------------------------------------- encoder --

/// Encodes one checkpoint stream, starting with a full record. Untraced it is
/// one core::VariableCompressor per variable — the program under test.
/// Traced it makes the calls VariableCompressor::push makes for the paper
/// configuration through the public stage functions, one span each; the
/// traced and untraced passes must write byte-identical containers.
class StreamEncoder {
 public:
  StreamEncoder(std::vector<std::string> vars, const nk::core::Options& opts,
                Tracer& tracer)
      : vars_(std::move(vars)), opts_(opts), tr_(tracer) {}

  /// The next encode() starts a new chain with full records.
  void rebase() {
    compressors_.clear();
    prev_ = nullptr;
  }

  std::map<std::string, nk::core::CompressedStep> encode(const Snapshot& snap) {
    std::map<std::string, nk::core::CompressedStep> out;
    encoded_.clear();
    if (!tr_.on()) {
      if (compressors_.empty()) {
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          compressors_.emplace_back(opts_);
        }
      }
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        out.emplace(vars_[v], compressors_[v].push(snap[v]));
      }
    } else {
      for (std::size_t v = 0; v < vars_.size(); ++v) {
        if (prev_ == nullptr) {
          Scope s(tr_, "core.full");
          out.emplace(vars_[v], nk::core::CompressedStep::full_from(snap[v]));
        } else {
          out.emplace(vars_[v], encode_delta((*prev_)[v], snap[v]));
        }
      }
    }
    prev_ = &snap;
    return out;
  }

  /// Traced passes only, outside the timed checkpoint: the postpass byte
  /// ratio of the last encode (its records serialized without the postpass).
  void account_postpass(
      const std::map<std::string, nk::core::CompressedStep>& steps) {
    for (std::size_t v = 0; v < encoded_.size(); ++v) {
      tr_.add("lossless.bytes_before",
              static_cast<double>(encoded_[v].serialized_size_bytes()));
      tr_.add("lossless.bytes_after",
              static_cast<double>(steps.at(vars_[v]).payload.size()));
    }
  }

 private:
  nk::core::CompressedStep encode_delta(std::span<const double> prev,
                                        std::span<const double> cur) {
    Scope s(tr_, "core.encode");
    const std::size_t n = cur.size();
    // Change ratios and the learn set, as core::encode_iteration gathers
    // them: every needs-bin point's Eq. 1 ratio, in point order.
    std::vector<std::uint32_t> labels(n);
    nk::arch::active().classify(prev.data(), cur.data(), labels.data(), n,
                                opts_.error_bound,
                                opts_.resolved_small_value_threshold());
    std::vector<double> learn;
    for (std::size_t j = 0; j < n; ++j) {
      if (labels[j] == nk::arch::kLabelNeedsBin) {
        learn.push_back((cur[j] - prev[j]) / prev[j]);
      }
    }
    nk::core::BinModel model;
    {
      Scope l(tr_, "cluster.learn");
      model = nk::core::learn_bins(learn, opts_);
    }
    nk::core::EncodedIteration enc;
    {
      Scope c(tr_, "core.classify_assign_pack");
      enc = nk::core::encode_iteration_with_model(prev, cur, model, opts_);
    }
    nk::core::CompressedStep step;
    {
      Scope p(tr_, "lossless.postpass");
      step.payload = enc.serialize(opts_.postpass);
    }
    step.codec_id = nk::codec::kNumarckId;
    step.point_count = n;
    step.stats = enc.stats;
    step.paper_ratio_pct = enc.paper_compression_ratio();
    step.index_bits = opts_.index_bits;
    tr_.add("core.delta_points", static_cast<double>(n));
    tr_.add("core.exact_points", static_cast<double>(enc.stats.exact_total()));
    encoded_.push_back(std::move(enc));
    return step;
  }

  std::vector<std::string> vars_;
  nk::core::Options opts_;
  Tracer& tr_;
  std::vector<nk::core::VariableCompressor> compressors_;
  const Snapshot* prev_ = nullptr;
  std::vector<nk::core::EncodedIteration> encoded_;
};

// ----------------------------------------------------------------- restore --

std::size_t entry_index(const std::vector<nk::store::EntryInfo>& entries,
                        std::size_t iteration) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].iteration == iteration) return i;
  }
  throw std::runtime_error("iteration not in store: " +
                           std::to_string(iteration));
}

/// Called after each chain entry of a replay with the entry's iteration and
/// the restored state so far.
using EntryFn = std::function<void(
    std::size_t iteration,
    const std::map<std::string, nk::core::VariableReconstructor>&)>;

/// Replays entry `index`'s chain the way CheckpointStore::get does: one
/// CheckpointReader per chain entry, then load and push per variable.
std::map<std::string, nk::core::VariableReconstructor> replay_chain(
    const std::string& dir, const std::vector<nk::store::EntryInfo>& entries,
    std::size_t index, const std::vector<std::string>& vars, Tracer& tr,
    const EntryFn& on_entry = {}) {
  std::size_t start = index;
  while (!entries[start].reference_free) {
    if (start == 0) throw std::runtime_error("broken delta chain");
    --start;
  }
  tr.add("store.chain_depth", static_cast<double>(index - start));
  std::map<std::string, nk::core::VariableReconstructor> recon;
  for (const auto& v : vars) recon.emplace(v, nk::core::VariableReconstructor{});
  for (std::size_t i = start; i <= index; ++i) {
    std::optional<nk::io::CheckpointReader> reader;
    {
      Scope s(tr, "io.scan");
      reader.emplace(dir + "/" + entries[i].file, nk::io::TailPolicy::kStrict);
    }
    tr.add("io.opens", 1);
    for (const auto& v : vars) {
      nk::core::CompressedStep step;
      {
        Scope s(tr, "io.load");
        step = reader->load(v, 0);
      }
      tr.add("io.load_bytes", static_cast<double>(step.payload.size()));
      if (!step.is_full) {
        tr.add("core.decode_points", static_cast<double>(step.point_count));
      }
      Scope s(tr, step.is_full ? "lossless.fpc_decode" : "core.decode");
      recon.at(v).push(step);
    }
    if (on_entry) on_entry(entries[i].iteration, recon);
  }
  return recon;
}

/// Cold restore: open the store directory (recovery open) and get one
/// iteration. Traced, get is decomposed into its chain walk.
State cold_restore(const std::string& dir, std::size_t iteration,
                   const std::vector<std::string>& vars, Tracer& tr) {
  if (!tr.on()) {
    const nk::store::CheckpointStore store(dir);
    return store.get(iteration);
  }
  Scope root(tr, "restore");
  std::optional<nk::store::CheckpointStore> store;
  {
    Scope s(tr, "store.open");
    store.emplace(dir);
  }
  Scope s(tr, "store.get");
  const auto entries = store->list();
  const auto recon =
      replay_chain(dir, entries, entry_index(entries, iteration), vars, tr);
  State out;
  for (const auto& [v, r] : recon) out[v] = r.state();
  return out;
}

/// RMSE of the restored state against the true snapshot, normalised by
/// each variable's range, combined over variables by geometric mean: the
/// variables' figures span orders of magnitude, so an arithmetic mean would
/// be the worst variable's figure alone. Variables with a zero range or an
/// exact restore are left out; 0 when every variable restored exactly.
double nrmse(const std::map<std::string, nk::core::VariableReconstructor>& got,
             const Sequence& seq, std::size_t snap) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t v = 0; v < seq.vars.size(); ++v) {
    const auto& t = seq.snaps[snap][v];
    const auto& g = got.at(seq.vars[v]).state();
    const auto [lo, hi] = std::minmax_element(t.begin(), t.end());
    double se = 0.0;
    for (std::size_t j = 0; j < t.size(); ++j) {
      const double d = g[j] - t[j];
      se += d * d;
    }
    if (!(*hi > *lo) || !(se > 0.0)) continue;
    log_sum += std::log(std::sqrt(se / static_cast<double>(t.size())) /
                        (*hi - *lo));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// The decoder's contract for one delta link, checked from the inputs alone
/// so that no change to the library can share a mistake with the check.
/// `p` and `q` are the restored states before and after the link, `a` and
/// `b` the true snapshots they stand for. Every point must be stored exactly
/// (q == b), or fall under the small-value rule (|b| < T, |a| <= T, q == p),
/// or carry the change ratio of a to b within E: |q - p(1 + Δ)| <= E·|p| with
/// Δ = (b - a) / a, up to rounding. Returns the first failing point, or
/// npos.
std::size_t bad_link_point(std::span<const double> p, std::span<const double> q,
                           std::span<const double> a, std::span<const double> b,
                           double error_bound, double small_threshold) {
  if (p.size() != b.size() || q.size() != b.size()) return 0;
  for (std::size_t j = 0; j < b.size(); ++j) {
    if (std::memcmp(&q[j], &b[j], sizeof(double)) == 0) continue;
    if (small_threshold > 0.0 && std::abs(b[j]) < small_threshold &&
        std::abs(a[j]) <= small_threshold && q[j] == p[j]) {
      continue;
    }
    if (a[j] != 0.0) {
      const double ratio = (b[j] - a[j]) / a[j];
      const double slack = 1e-12 * (std::abs(p[j]) + std::abs(q[j]));
      if (std::abs(q[j] - p[j] * (1.0 + ratio)) <=
          error_bound * std::abs(p[j]) + slack) {
        continue;
      }
    }
    return j;
  }
  return std::string::npos;
}

std::uint32_t hash_files(const std::vector<std::string>& paths) {
  std::uint32_t h = nk::util::kCrc32Init;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    h = nk::util::crc32_update(h, bytes.data(), bytes.size());
  }
  return h;
}

// ----------------------------------------------------------------- metrics --

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

/// End-to-end timings of one kind of pass (untraced or traced).
struct Timings {
  std::vector<double> ckpt_delta_ms;  ///< delta iterations only
  std::size_t ckpts = 0;              ///< every checkpoint, full ones too
  double ckpt_bytes = 0.0;
  double ckpt_s = 0.0;                ///< checkpoints and prunes
  std::vector<double> restore_ms;
  double restore_bytes = 0.0;
  double restore_s = 0.0;
  std::size_t prunes = 0;

  [[nodiscard]] double ckpt_mb_s() const {
    return ckpt_s > 0.0 ? ckpt_bytes / ckpt_s / 1e6 : 0.0;
  }
  [[nodiscard]] double restore_mb_s() const {
    return restore_s > 0.0 ? restore_bytes / restore_s / 1e6 : 0.0;
  }
};

/// Exact output quality, taken from the first complete pass only so that it
/// repeats bit for bit for a seed whatever the run length.
struct Quality {
  double stored_bytes = 0.0;
  double raw_bytes = 0.0;
  double err_weighted = 0.0;
  double err_points = 0.0;
  double err_max = 0.0;
};

/// What every restore of one entry must give, from its verified replay.
struct Expected {
  std::uint32_t crc = 0;  ///< CRC-32 of the state, variables in order
  double nrmse = 0.0;
};

struct Env {
  unsigned long long steal_start = 0;
  double load_start = 0.0;
};

unsigned long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long f[8] = {};
  in >> cpu;
  for (auto& x : f) in >> x;
  return in ? f[7] : 0;
}

/// A "Vm...:" field of /proc/self/status in MB, or -1 when missing.
double proc_status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (in >> key) {
    if (key == field + ":" && in >> kb) return kb / 1024.0;
    in.ignore(256, '\n');
  }
  return -1.0;
}

double load1() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794C7630ul: return "overlayfs";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --------------------------------------------------------------- the bench --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string workdir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const Args& args, unsigned workers)
      : args_(args),
        workers_(workers),
        pool_(workers_),
        dir_(args.workdir + "/" + args.workload),
        tr_(args.trace ? Tracer::kReserve : 0) {
    opts_.strategy = nk::core::Strategy::kClustering;
    opts_.index_bits = 8;
    opts_.error_bound = 0.001;
    opts_.postpass = nk::core::Postpass::all();
    opts_.pool = &pool_;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    env_.steal_start = steal_ticks();
    env_.load_start = load1();
  }

  ~Bench() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void run() {
    if (args_.workload == "flash-restart") {
      flash_restart();
    } else if (args_.workload == "cmip5-store") {
      cmip5_store();
    } else {
      throw std::invalid_argument("unknown workload: " + args_.workload);
    }
  }

  void print() const;

  /// Traced runs: the kept spans, one per line, next to the work directory.
  void write_trace() const {
    if (!args_.trace) return;
    const std::string path =
        args_.workdir + "/trace-" + args_.workload + ".jsonl";
    if (!tr_.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

 private:
  // --- one operation each; every exception counts as a failed operation --

  nk::store::StoreOptions store_options() {
    nk::store::StoreOptions so;
    so.durability = nk::io::Durability::kFsyncPerIteration;
    if (args_.trace) {
      const std::string manifest_tmp =
          std::string(nk::store::CheckpointStore::kManifestName) + ".tmp";
      so.sink_factory = [this, manifest_tmp](const std::string& path)
          -> std::unique_ptr<nk::io::ByteSink> {
        auto file = std::make_unique<nk::io::FileSink>(path);
        if (!tr_.on()) return file;
        const bool manifest =
            path.size() >= manifest_tmp.size() &&
            path.compare(path.size() - manifest_tmp.size(),
                         manifest_tmp.size(), manifest_tmp) == 0;
        return std::make_unique<perfbench::CountingSink>(std::move(file),
                                                         manifest, tr_);
      };
    }
    return so;
  }

  Timings& timings() { return tr_.on() ? traced_ : plain_; }

  void checkpoint(nk::store::CheckpointStore& store, StreamEncoder& enc,
                  const Sequence& seq, std::size_t snap,
                  std::size_t iteration, bool record_quality) {
    ++attempted_;
    try {
      std::map<std::string, nk::core::CompressedStep> steps;
      const double t0 = now_s() - fsync_s();
      {
        Scope root(tr_, "ckpt");
        const std::uint64_t fsyncs = g_fsync_calls.load();
        steps = enc.encode(seq.snaps[snap]);
        {
          Scope s(tr_, "store.put");
          store.put(iteration, seq.times[snap], steps);
        }
        tr_.add("io.fsync_calls",
                static_cast<double>(g_fsync_calls.load() - fsyncs));
      }
      const double dt = now_s() - fsync_s() - t0;
      Timings& t = timings();
      ++t.ckpts;
      t.ckpt_s += dt;
      t.ckpt_bytes += seq.raw_bytes();
      const bool full = steps.begin()->second.is_full;
      if (full) {
        full_puts_.insert(iteration);
      } else {
        t.ckpt_delta_ms.push_back(dt * 1e3);
      }
      bool ok = true;
      for (const auto& [v, step] : steps) {
        if (!step.is_full &&
            !(step.stats.max_ratio_error <= opts_.error_bound)) {
          ok = false;
        }
      }
      if (!ok) ++failed_;
      if (tr_.on()) account(enc, steps);
      if (record_quality) {
        quality_.raw_bytes += seq.raw_bytes();
        quality_.stored_bytes += static_cast<double>(
            fs::file_size(store.directory() + "/" + store.list().back().file));
        for (const auto& [v, step] : steps) {
          if (step.is_full) continue;
          const auto pts = static_cast<double>(step.stats.total_points);
          quality_.err_weighted += step.stats.mean_ratio_error * pts;
          quality_.err_points += pts;
          quality_.err_max = std::max(quality_.err_max,
                                      step.stats.max_ratio_error);
        }
      }
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "perfbench: put %zu failed: %s\n", iteration,
                   e.what());
    }
  }

  /// Traced passes: postpass bytes and CRC-32 throughput over the payloads
  /// just written, outside the timed checkpoint.
  void account(StreamEncoder& enc,
               const std::map<std::string, nk::core::CompressedStep>& steps) {
    Scope root(tr_, "aux");
    double payload = 0.0;
    for (const auto& [v, step] : steps) {
      payload += static_cast<double>(step.payload.size());
    }
    tr_.add("store.payload_bytes_ckpt", payload);
    enc.account_postpass(steps);
    {
      Scope s(tr_, "util.crc32");
      for (const auto& [v, step] : steps) {
        (void)nk::util::crc32(step.payload.data(), step.payload.size());
      }
    }
    tr_.add("util.crc32_bytes", payload);
  }

  /// In the first pass (`verify`), the chain of the latest entry is
  /// verified first, untimed, so that entries the prune rewrites standalone
  /// can be checked against their verified states later.
  void prune(nk::store::CheckpointStore& store, std::size_t keep_last,
             std::size_t keep_every, const Sequence& seq, bool verify) {
    ++attempted_;
    try {
      if (verify &&
          !verify_chain(store.directory(), store.list().back().iteration,
                        seq)) {
        ++failed_;
        return;
      }
      const double t0 = now_s() - fsync_s();
      {
        Scope root(tr_, "prune");
        const nk::store::PruneReport report = store.prune(keep_last, keep_every);
        tr_.add("store.prune_rewritten", static_cast<double>(report.rewritten));
      }
      // Retention is part of the write side's cost: it counts in ckpt_mb_s,
      // but not in the per-iteration latencies.
      Timings& t = timings();
      t.ckpt_s += now_s() - fsync_s() - t0;
      ++t.prunes;
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "perfbench: prune failed: %s\n", e.what());
    }
  }

  /// Replays the chain of `iteration` (iteration i holds snapshot i) and
  /// checks every entry on it against the inputs: a chain start the
  /// benchmark wrote as a full record must equal its snapshot bit for bit
  /// (FPC is lossless); a chain start that prune rewrote standalone must
  /// equal the state verified for that iteration before the rewrite; every
  /// delta link must keep the decoder's contract (bad_link_point). Records
  /// what every later restore of each entry on the chain must give.
  /// Untimed. Returns false, after saying why, when a check fails.
  bool verify_chain(const std::string& dir, std::size_t iteration,
                    const Sequence& seq) {
    const auto inspection = nk::store::inspect_store(dir);
    std::vector<nk::store::EntryInfo> entries;
    for (const auto& f : inspection.files) entries.push_back(f.entry);
    std::string why;
    std::optional<std::size_t> prev_it;
    std::vector<std::vector<double>> prev_state;
    Tracer off;
    replay_chain(
        dir, entries, entry_index(entries, iteration), seq.vars, off,
        [&](std::size_t it, const auto& rec) {
          if (!why.empty()) return;
          std::uint32_t crc = nk::util::kCrc32Init;
          for (std::size_t v = 0; v < seq.vars.size(); ++v) {
            const auto& q = rec.at(seq.vars[v]).state();
            crc = crc_values(crc, q);
            const auto& b = seq.snaps[it][v];
            if (!prev_it) {
              if (full_puts_.count(it) != 0 &&
                  (q.size() != b.size() ||
                   std::memcmp(q.data(), b.data(), b.size() * sizeof(double)) !=
                       0)) {
                why = "full record of " + seq.vars[v] + " is not its input";
              }
              continue;
            }
            const std::size_t j = bad_link_point(
                prev_state[v], q, seq.snaps[*prev_it][v], b, opts_.error_bound,
                opts_.resolved_small_value_threshold());
            if (j != std::string::npos) {
              why = seq.vars[v] + " point " + std::to_string(j) +
                    " breaks the error bound";
            }
          }
          if (!prev_it && full_puts_.count(it) == 0) {
            const auto known = expected_.find(it);
            if (known == expected_.end() || known->second.crc != crc) {
              why = "rewritten entry differs from its verified state";
            }
          }
          if (!why.empty()) return;
          expected_.insert_or_assign(it, Expected{crc, nrmse(rec, seq, it)});
          prev_it = it;
          prev_state.clear();
          for (const auto& v : seq.vars) {
            prev_state.push_back(rec.at(v).state());
          }
        });
    if (!why.empty()) {
      std::fprintf(stderr, "perfbench: chain of %zu: %s\n", iteration,
                   why.c_str());
      return false;
    }
    return true;
  }

  /// Cold restore of `iteration`, compared bit for bit (by CRC) with the
  /// verified replay of its chain, made on the first restore of the entry.
  void restore(const std::string& dir, std::size_t iteration,
               const Sequence& seq) {
    ++attempted_;
    try {
      const double t0 = now_s() - fsync_s();
      const State got = cold_restore(dir, iteration, seq.vars, tr_);
      const double dt = now_s() - fsync_s() - t0;
      Timings& t = timings();
      t.restore_ms.push_back(dt * 1e3);
      t.restore_s += dt;
      t.restore_bytes += seq.raw_bytes();
      auto it = expected_.find(iteration);
      if (it == expected_.end()) {
        if (!verify_chain(dir, iteration, seq)) {
          ++failed_;
          return;
        }
        it = expected_.find(iteration);
      }
      std::uint32_t crc = nk::util::kCrc32Init;
      for (const auto& v : seq.vars) {
        const auto g = got.find(v);
        crc = g == got.end() ? ~crc : crc_values(crc, g->second);
      }
      if (got.size() != seq.vars.size() || crc != it->second.crc) {
        ++failed_;
        std::fprintf(stderr, "perfbench: restore %zu differs from replay\n",
                     iteration);
      }
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "perfbench: restore %zu failed: %s\n", iteration,
                   e.what());
    }
  }

  /// Traced runs: the containers a traced pass leaves in the store must
  /// equal, byte for byte, those of the untraced pass before it.
  void compare_pass(const nk::store::CheckpointStore& store, bool traced_pass) {
    if (!args_.trace) return;
    std::vector<std::string> files;
    for (const auto& e : store.list()) {
      files.push_back(store.directory() + "/" + e.file);
    }
    const std::uint32_t hash = hash_files(files);
    if (!traced_pass) {
      untraced_hash_ = hash;
      return;
    }
    ++compared_;
    if (hash != untraced_hash_) {
      ++failed_;
      std::fprintf(stderr,
                   "perfbench: traced pass wrote different containers\n");
    }
  }

  /// Passes run to completion until time is up: at least one, and in traced
  /// runs at least an untraced and a traced one.
  bool another_pass(std::size_t done, double t_end) const {
    return done < (args_.trace ? 2u : 1u) || now_s() < t_end;
  }

  /// Starts the peak-memory window at the first two passes, so that it
  /// leaves out set-up and the first pass's one-off verification: resets the
  /// process's resident high-water mark to its current resident set (mostly
  /// the input snapshots), which the environment line records.
  void mark_memory(std::size_t pass) {
    if (pass > 1) return;
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear) throw std::runtime_error("cannot reset the peak RSS");
    rss_base_mb_ = proc_status_mb("VmRSS");
  }

  /// Setup repetitions, for the setup_s median.
  std::size_t setup_reps() const { return args_.quick ? 2 : 3; }

  Sequence timed_setup(const std::function<Sequence()>& make) {
    Sequence seq;
    for (std::size_t r = 0; r < setup_reps(); ++r) {
      seq = Sequence{};
      const double t0 = now_s();
      seq = make();
      setup_s_.push_back(now_s() - t0);
    }
    // From here on the library sees the workload's worker count; the global
    // pool is first made after this (print() checks its size).
    g_workers = static_cast<unsigned>(workers_);
    digest_ = digest(seq);
    return seq;
  }

  // --- workloads ---------------------------------------------------------

  /// flash-restart restores this many entries per cycle, in rotation over
  /// the chain, so every depth is restored equally often over R cycles while
  /// writes get as many samples as restores take time.
  static constexpr std::size_t kRestoresPerCycle = 2;

  void flash_restart() {
    const std::size_t R = args_.quick ? 3 : 5;
    const Sequence seq = timed_setup([&] {
      return flash_sequence(args_.seed, R, args_.quick);
    });
    StreamEncoder enc(seq.vars, opts_, tr_);
    const double t_end = now_s() + args_.seconds;
    std::string prev_dir;
    for (std::size_t c = 0; another_pass(c, t_end); ++c) {
      mark_memory(c);
      const bool traced_pass = args_.trace && c % 2 == 1;
      if (!prev_dir.empty()) fs::remove_all(prev_dir);
      const std::string dir = dir_ + "/cycle" + std::to_string(c);
      prev_dir = dir;
      nk::store::CheckpointStore store(dir, seq.vars, store_options());
      tr_.set_on(traced_pass);
      enc.rebase();
      for (std::size_t i = 0; i < R; ++i) {
        checkpoint(store, enc, seq, i, i, c == 0);
      }
      prune(store, R, 0, seq, c == 0);
      for (std::size_t k = 0; k < kRestoresPerCycle; ++k) {
        restore(dir, (c * kRestoresPerCycle + k) % R, seq);
      }
      tr_.set_on(false);
      compare_pass(store, traced_pass);
      ++units_;
    }
  }

  void cmip5_store() {
    const std::size_t D = args_.quick ? 20 : 60;
    const std::size_t keep_last = args_.quick ? 4 : 7;
    const std::size_t keep_every = args_.quick ? 10 : 30;
    const std::size_t prune_every = args_.quick ? 5 : 10;
    const std::size_t restore_every = args_.quick ? 2 : 3;
    const Sequence seq = timed_setup([&] {
      return climate_sequence(args_.seed, D, args_.quick);
    });
    StreamEncoder enc(seq.vars, opts_, tr_);
    const double t_end = now_s() + args_.seconds;
    std::string prev_dir;
    for (std::size_t e = 0; another_pass(e, t_end); ++e) {
      mark_memory(e);
      const bool traced_pass = args_.trace && e % 2 == 1;
      if (!prev_dir.empty()) fs::remove_all(prev_dir);
      const std::string dir = dir_ + "/episode" + std::to_string(e);
      prev_dir = dir;
      nk::store::CheckpointStore store(dir, seq.vars, store_options());
      tr_.set_on(traced_pass);
      enc.rebase();
      for (std::size_t d = 0; d < D; ++d) {
        checkpoint(store, enc, seq, d, d, e == 0);
        if ((d + 1) % prune_every == 0) {
          prune(store, keep_last, keep_every, seq, e == 0);
        }
        if ((d + 1) % restore_every == 0) restore(dir, d, seq);
      }
      tr_.set_on(false);
      compare_pass(store, traced_pass);
      ++units_;
    }
  }

  // --- reporting ----------------------------------------------------------

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;

  Args args_;
  std::size_t workers_;
  nk::util::ThreadPool pool_;
  std::string dir_;
  nk::core::Options opts_;
  Tracer tr_;
  Env env_;
  Timings plain_;
  Timings traced_;
  Quality quality_;
  std::map<std::size_t, Expected> expected_;  ///< verified, by iteration
  std::set<std::size_t> full_puts_;  ///< iterations written as full records
  std::vector<double> setup_s_;
  double rss_base_mb_ = 0.0;
  std::uint32_t digest_ = 0;
  std::uint32_t untraced_hash_ = 0;
  std::size_t compared_ = 0;
  std::size_t units_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

std::vector<Metric> Bench::end_to_end() const {
  const Timings& t = plain_;
  double nrmse_sum = 0.0;
  for (const auto& [it, e] : expected_) nrmse_sum += e.nrmse;
  return {
      {"ckpt_mb_s", t.ckpt_mb_s(), "MB/s"},
      {"ckpt_p50_ms", median(t.ckpt_delta_ms), "ms"},
      {"ckpt_p90_ms", percentile(t.ckpt_delta_ms, 90.0), "ms"},
      {"restore_mb_s", t.restore_mb_s(), "MB/s"},
      {"restore_p50_ms", median(t.restore_ms), "ms"},
      {"restore_p90_ms", percentile(t.restore_ms, 90.0), "ms"},
      {"stored_ratio", quality_.stored_bytes / quality_.raw_bytes, "ratio"},
      {"mean_err_rate", quality_.err_weighted / quality_.err_points, "ratio"},
      {"max_err_rate", quality_.err_max, "ratio"},
      {"restore_nrmse", nrmse_sum / static_cast<double>(expected_.size()),
       "ratio"},
      {"peak_rss_mb", proc_status_mb("VmHWM"), "MB"},
      {"setup_s", median(setup_s_), "s"},
  };
}

std::vector<Metric> Bench::per_layer() const {
  const auto totals = tr_.totals();
  auto self_s = [&](const char* root, const char* name) {
    const auto it = totals.find({root, name});
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto incl_s = [&](const char* root, const char* name) {
    const auto it = totals.find({root, name});
    return it == totals.end() ? 0.0 : it->second.inclusive_s;
  };
  auto calls = [&](const char* root) {
    const auto it = totals.find({root, root});
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  auto cnt = [&](const char* root, const char* name) {
    return tr_.counter(root, name);
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double nckpt = calls("ckpt");
  const double nrestore = calls("restore");
  const double nprune = calls("prune");
  // Self times per checkpoint (write side) and per restore (read side): the
  // layers of one side plus its unaccounted remainder sum to the mean traced
  // checkpoint or restore time.
  auto per_ckpt = [&](const char* name) {
    return ratio(self_s("ckpt", name) * 1e3, nckpt);
  };
  auto per_restore = [&](const char* name) {
    return ratio(self_s("restore", name) * 1e3, nrestore);
  };
  const double crc_mb_s =
      ratio(cnt("aux", "util.crc32_bytes"), incl_s("aux", "util.crc32") * 1e6);
  const double ckpt_ms = ratio(incl_s("ckpt", "ckpt") * 1e3, nckpt);
  const double restore_ms = ratio(incl_s("restore", "restore") * 1e3, nrestore);
  const double ckpt_payload = ratio(cnt("aux", "store.payload_bytes_ckpt"), nckpt);
  const double restore_payload = ratio(cnt("restore", "io.load_bytes"), nrestore);
  const double sink_bytes =
      cnt("ckpt", "io.container_bytes") + cnt("ckpt", "io.manifest_bytes");
  return {
      {"core.encode_ms", per_ckpt("core.encode"), "ms"},
      {"core.encode_mpt_s",
       ratio(cnt("ckpt", "core.delta_points"),
             incl_s("ckpt", "core.encode") * 1e6),
       "Mpt/s"},
      {"cluster.learn_ms", per_ckpt("cluster.learn"), "ms"},
      {"core.classify_assign_pack_ms", per_ckpt("core.classify_assign_pack"),
       "ms"},
      {"lossless.postpass_ms", per_ckpt("lossless.postpass"), "ms"},
      {"lossless.postpass_ratio",
       ratio(cnt("aux", "lossless.bytes_after"),
             cnt("aux", "lossless.bytes_before")),
       "ratio"},
      {"core.gamma",
       ratio(cnt("ckpt", "core.exact_points"), cnt("ckpt", "core.delta_points")),
       "ratio"},
      {"core.full_ms", per_ckpt("core.full"), "ms"},
      {"util.crc32_mb_s", crc_mb_s, "MB/s"},
      {"util.crc32_ckpt_share_est",
       ratio(ratio(ckpt_payload, crc_mb_s * 1e3), ckpt_ms), "ratio"},
      {"util.crc32_restore_share_est",
       ratio(ratio(restore_payload, crc_mb_s * 1e3), restore_ms), "ratio"},
      {"store.put_ms", per_ckpt("store.put"), "ms"},
      {"io.sink_write_ms", per_ckpt("io.sink_write"), "ms"},
      {"io.sink_writes", ratio(cnt("ckpt", "io.sink_writes"), nckpt), "count"},
      {"io.fsync_ms", per_ckpt("io.fsync"), "ms"},
      {"io.fsyncs", ratio(cnt("ckpt", "io.fsyncs"), nckpt), "count"},
      {"io.dir_fsyncs",
       ratio(cnt("ckpt", "io.fsync_calls") - cnt("ckpt", "io.fsyncs"), nckpt),
       "count"},
      {"io.manifest_bytes", ratio(cnt("ckpt", "io.manifest_bytes"), nckpt),
       "bytes"},
      {"store.write_amp", ratio(sink_bytes, cnt("aux", "store.payload_bytes_ckpt")),
       "ratio"},
      {"trace.ckpt_unaccounted_ms", per_ckpt("ckpt"), "ms"},
      {"trace.ckpt_ms", ckpt_ms, "ms"},
      {"store.open_ms", per_restore("store.open"), "ms"},
      {"store.get_ms", per_restore("store.get"), "ms"},
      {"store.chain_depth", ratio(cnt("restore", "store.chain_depth"), nrestore),
       "count"},
      {"io.scan_ms", per_restore("io.scan"), "ms"},
      {"io.opens_per_restore", ratio(cnt("restore", "io.opens"), nrestore),
       "count"},
      {"io.load_ms", per_restore("io.load"), "ms"},
      {"io.load_mb_s",
       ratio(cnt("restore", "io.load_bytes"), incl_s("restore", "io.load") * 1e6),
       "MB/s"},
      {"core.decode_ms", per_restore("core.decode"), "ms"},
      {"core.decode_mpt_s",
       ratio(cnt("restore", "core.decode_points"),
             incl_s("restore", "core.decode") * 1e6),
       "Mpt/s"},
      {"lossless.fpc_decode_ms", per_restore("lossless.fpc_decode"), "ms"},
      {"trace.restore_unaccounted_ms", per_restore("restore"), "ms"},
      {"trace.restore_ms", restore_ms, "ms"},
      {"store.prune_ms", ratio(incl_s("prune", "prune") * 1e3, nprune), "ms"},
      {"store.prune_rewritten", ratio(cnt("prune", "store.prune_rewritten"), nprune),
       "count"},
      {"trace.ckpt_mb_s_ratio", ratio(traced_.ckpt_mb_s(), plain_.ckpt_mb_s()),
       "ratio"},
      {"trace.restore_mb_s_ratio",
       ratio(traced_.restore_mb_s(), plain_.restore_mb_s()), "ratio"},
      {"trace.containers_compared", static_cast<double>(compared_), "count"},
  };
}

void Bench::print() const {
  if (nk::util::ThreadPool::global().size() != workers_) {
    throw std::runtime_error("the global pool is not at the worker count");
  }
  const Timings& t = args_.trace ? traced_ : plain_;
  const unsigned long long steal = steal_ticks();
  const std::string store_fs = fs_type(dir_);
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"codec_workers\": %zu, \"decode_workers\": %zu, \"arch\": \"%s\", "
      "\"durability\": \"fsync-per-iteration\", \"store_fs\": \"%s\", "
      "\"store_on_tmpfs\": %s, \"steal_ticks\": %llu, \"load1_start\": %s, "
      "\"load1_end\": %s, \"input_digest\": \"%08x\", \"units\": %zu, "
      "\"ckpt_samples\": %zu, \"ckpt_delta_samples\": %zu, "
      "\"restore_samples\": %zu, \"prunes\": %zu, \"fsync_calls\": %llu, "
      "\"fsync_s\": %s, \"rss_base_mb\": %s, \"rss_hwm_mb\": %s, "
      "\"fail_rate\": %s}}\n",
      args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
      online_cpus(), workers_, nk::util::ThreadPool::global().size(),
      nk::arch::to_string(nk::arch::active_level()), store_fs.c_str(),
      store_fs == "tmpfs" ? "true" : "false", steal - env_.steal_start,
      json_number(env_.load_start).c_str(), json_number(load1()).c_str(),
      static_cast<unsigned>(digest_), units_,
      t.ckpts, t.ckpt_delta_ms.size(), t.restore_ms.size(), t.prunes,
      static_cast<unsigned long long>(g_fsync_calls.load()),
      json_number(fsync_s()).c_str(), json_number(rss_base_mb_).c_str(),
      json_number(proc_status_mb("VmHWM")).c_str(),
      json_number(static_cast<double>(failed_) /
                  static_cast<double>(std::max<std::size_t>(attempted_, 1)))
          .c_str());
  const auto metrics = args_.trace ? per_layer() : end_to_end();
  bool finite = true;
  std::string body;
  for (const auto& m : metrics) {
    finite = finite && std::isfinite(m.value);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      failed_ == 0 && finite ? "true" : "false", attempted_, failed_,
      body.c_str());
  std::fflush(stdout);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--workdir") {
      a.workdir = value();
    } else if (k == "--quick") {
      a.quick = true;
    } else {
      throw std::invalid_argument("unknown argument: " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    g_workers = online_cpus();  // set-up runs on every CPU
    Bench bench(args, std::min(1u, online_cpus()));
    bench.run();
    bench.write_trace();
    bench.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "numarck-perfbench: %s\n", e.what());
    return 1;
  }
}
