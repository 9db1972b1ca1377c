#pragma once

// Shared types of the memscale end-to-end benchmark (see README.md): the
// benchmark's own span log, the per-layer counter snapshot read through
// each layer's public accessors, and the result of one workload iteration.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/memory_space.hpp"
#include "sim/tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-time spans recorded by the benchmark around its calls into the
/// program: name, start, end (seconds since the log was created) and the
/// index of the enclosing span (-1 for a root). Kept in memory and written
/// out once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }
  void write_json(std::ostream& out) const;

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer: adds its host duration to `*acc` and, when
/// a log is given, records it as a span nested in the enclosing one.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, double* acc)
      : log_(log), acc_(acc), t0_(Clock::now()) {
    if (log_ != nullptr) id_ = log_->open(name);
  }
  ~Timed() {
    *acc_ += seconds_since(t0_);
    if (log_ != nullptr) log_->close(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  double* acc_;
  Clock::time_point t0_;
  int id_ = -1;
};

/// Cumulative per-layer counters of one cluster and its single process
/// space. Snapshots are taken around the measured phase; the difference is
/// what the phase did. Every field is deterministic for a given seed.
struct Counts {
  std::uint64_t events = 0;         ///< sim: Engine::events_processed
  std::uint64_t frames_pooled = 0;  ///< sim: FramePool (thread-local totals)
  std::uint64_t frames_heap = 0;
  std::uint64_t accesses = 0;       ///< core: timed_reads + timed_writes
  std::uint64_t swap_accesses = 0;  ///< accesses of a swap-mode space
  std::uint64_t sim_ps = 0;         ///< simulated time elapsed
  std::uint64_t tlb_hits = 0;       ///< os
  std::uint64_t tlb_misses = 0;
  std::uint64_t tlb_flat_probes = 0;
  std::uint64_t fastpath_hits = 0;  ///< node
  std::uint64_t slowpath_accesses = 0;
  std::uint64_t cache_hits = 0;     ///< mem: every core cache of every node
  std::uint64_t cache_misses = 0;
  std::uint64_t mc_reads = 0;       ///< mem: every memory controller
  std::uint64_t mc_writes = 0;
  std::uint64_t rmc_requests = 0;   ///< rmc: client round trips, all RMCs
  double rmc_round_trip_ps = 0;     ///< rmc: sum over round trips
  std::uint64_t rmc_round_trips = 0;
  double rmc_port_wait_ps = 0;
  std::uint64_t rmc_port_waits = 0;
  std::uint64_t noc_packets = 0;    ///< noc
  std::uint64_t link_traversals = 0;  ///< noc: packets summed over links
  std::uint64_t swap_faults = 0;    ///< swap: SwapManager accessors
  std::uint64_t swap_major_faults = 0;
  std::uint64_t swap_evictions = 0;
  std::uint64_t swap_dirty_writebacks = 0;

  Counts& operator+=(const Counts& o);
  Counts operator-(const Counts& o) const;
};

Counts snapshot(ms::core::Cluster& cluster, ms::core::MemorySpace& space);

/// Host seconds of one iteration, split by phase.
struct Phases {
  double cluster_build = 0;   ///< Cluster (and MemorySpace) construction
  double workload_setup = 0;  ///< workload setup() and warm-up
  double run = 0;             ///< measured phase
  double verify = 0;          ///< correctness checks
  double teardown = 0;        ///< destruction of workload and machine
};

/// Deliberate faults, used only by the self-test to show that every
/// correctness check can fail.
enum class Fault {
  kNone,
  kBlackscholesOption,  ///< corrupt option records before the run
  kRaytraceLeaf,        ///< corrupt leaf payloads before the run
  kStreamclusterPoint,  ///< corrupt point coordinates before the run
  kCannealSpread,       ///< scatter element positions after the run
  kBtreeLeaf,           ///< zero the first leaf's keys before the run
  kBtreeExtraKey,       ///< insert a key the oracle does not know
  kRandomReadWord,      ///< corrupt the first word thread 0 reads
  kRandomSampleWord,    ///< corrupt the first word the sample peeks
  kRandomDropThread,    ///< run one simulated thread fewer
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool small = false;              ///< self-test sizes
  SpanLog* log = nullptr;          ///< benchmark spans (nullptr: off)
  ms::sim::Tracer* tracer = nullptr;  ///< simulated-time tracer (nullptr: off)
  Fault fault = Fault::kNone;
};

/// One run of a workload from Cluster construction to teardown.
struct Iteration {
  Phases ph;
  double wall_s = 0;
  Counts counts;  ///< measured-phase deltas, summed over the clusters
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check kind
  /// Largest process RSS sampled after each measured phase and before
  /// each teardown, when the workload's memory is at its fullest.
  double peak_rss_mib = 0;

  double setup_s() const { return ph.cluster_build + ph.workload_setup; }
  void note_rss();
  void check(std::uint64_t attempted_ops, std::uint64_t failed_ops,
             const std::string& what);
};

std::vector<std::string> workload_names();
Iteration run_workload(const std::string& name, const RunOptions& opt);

/// Host ns per op of one layer kernel, with the counts of the child
/// kernels it nests (per op), measured by the probe loops in probes.cpp.
struct Probe {
  double ns = 0;
  double events = 0;
  double frames = 0;
  double accesses = 0;
  double tlb_lookups = 0;
  double tlb_walks = 0;
  double packets = 0;
  double mc_ops = 0;
  double misses = 0;  ///< core cache misses
  double self_ns = 0;  ///< ns minus the nested child kernels
};

struct ProbeSet {
  Probe event, coro_resume, poke, hit_access, translate, tlb_lookup, map_page,
      backing_rw, mc_access, local_fill, remote_fill_1hop, remote_fill_6hop,
      traverse, major_fault, resident_hit;
  /// RMC self cost per request at a mean route length of `hops`,
  /// interpolated between the 1-hop and 6-hop probes.
  double rmc_self_ns(double hops) const {
    const double t = std::clamp((hops - 1) / 5, 0.0, 1.0);
    return remote_fill_1hop.self_ns +
           t * (remote_fill_6hop.self_ns - remote_fill_1hop.self_ns);
  }
};

/// Runs every probe, recording one span per repetition in `log` (may be
/// null).
ProbeSet run_probes(SpanLog* log);

}  // namespace perfbench
