// The three benchmark workloads. Each iteration builds fresh clusters at
// the paper's default machine (16 nodes, 4x4 mesh, one outstanding remote
// request per core), runs one workload from its seed, checks the results
// against oracles computed apart from the simulated memory path, and tears
// everything down. Host time is split by phase through perfbench::Timed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include <unistd.h>

#include "bench.hpp"
#include "core/remote_allocator.hpp"
#include "core/runner.hpp"
#include "sim/frame_pool.hpp"
#include "sim/random.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/btree.hpp"
#include "workloads/canneal.hpp"
#include "workloads/random_access.hpp"
#include "workloads/raytrace.hpp"
#include "workloads/streamcluster.hpp"

namespace perfbench {

using namespace ms;
using Mode = core::MemorySpace::Mode;

// ---------------------------------------------------------------------------
// Counters and spans
// ---------------------------------------------------------------------------

Counts& Counts::operator+=(const Counts& o) {
  events += o.events;
  frames_pooled += o.frames_pooled;
  frames_heap += o.frames_heap;
  accesses += o.accesses;
  swap_accesses += o.swap_accesses;
  sim_ps += o.sim_ps;
  tlb_hits += o.tlb_hits;
  tlb_misses += o.tlb_misses;
  tlb_flat_probes += o.tlb_flat_probes;
  fastpath_hits += o.fastpath_hits;
  slowpath_accesses += o.slowpath_accesses;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  mc_reads += o.mc_reads;
  mc_writes += o.mc_writes;
  rmc_requests += o.rmc_requests;
  rmc_round_trip_ps += o.rmc_round_trip_ps;
  rmc_round_trips += o.rmc_round_trips;
  rmc_port_wait_ps += o.rmc_port_wait_ps;
  rmc_port_waits += o.rmc_port_waits;
  noc_packets += o.noc_packets;
  link_traversals += o.link_traversals;
  swap_faults += o.swap_faults;
  swap_major_faults += o.swap_major_faults;
  swap_evictions += o.swap_evictions;
  swap_dirty_writebacks += o.swap_dirty_writebacks;
  return *this;
}

Counts Counts::operator-(const Counts& o) const {
  Counts d = *this;
  d.events -= o.events;
  d.frames_pooled -= o.frames_pooled;
  d.frames_heap -= o.frames_heap;
  d.accesses -= o.accesses;
  d.swap_accesses -= o.swap_accesses;
  d.sim_ps -= o.sim_ps;
  d.tlb_hits -= o.tlb_hits;
  d.tlb_misses -= o.tlb_misses;
  d.tlb_flat_probes -= o.tlb_flat_probes;
  d.fastpath_hits -= o.fastpath_hits;
  d.slowpath_accesses -= o.slowpath_accesses;
  d.cache_hits -= o.cache_hits;
  d.cache_misses -= o.cache_misses;
  d.mc_reads -= o.mc_reads;
  d.mc_writes -= o.mc_writes;
  d.rmc_requests -= o.rmc_requests;
  d.rmc_round_trip_ps -= o.rmc_round_trip_ps;
  d.rmc_round_trips -= o.rmc_round_trips;
  d.rmc_port_wait_ps -= o.rmc_port_wait_ps;
  d.rmc_port_waits -= o.rmc_port_waits;
  d.noc_packets -= o.noc_packets;
  d.link_traversals -= o.link_traversals;
  d.swap_faults -= o.swap_faults;
  d.swap_major_faults -= o.swap_major_faults;
  d.swap_evictions -= o.swap_evictions;
  d.swap_dirty_writebacks -= o.swap_dirty_writebacks;
  return d;
}

Counts snapshot(core::Cluster& cluster, core::MemorySpace& space) {
  Counts c;
  c.events = cluster.engine().events_processed();
  c.frames_pooled = sim::FramePool::frames_pooled();
  c.frames_heap = sim::FramePool::frames_heap();
  c.accesses = space.timed_reads() + space.timed_writes();
  c.sim_ps = cluster.engine().now();
  c.tlb_hits = space.tlb().hits();
  c.tlb_misses = space.tlb().misses();
  c.tlb_flat_probes = space.tlb().flat_probes();
  for (int id = 1; id <= cluster.num_nodes(); ++id) {
    const auto nid = static_cast<ht::NodeId>(id);
    node::Node& n = cluster.node(nid);
    c.fastpath_hits += n.fastpath_hits();
    c.slowpath_accesses += n.slowpath_accesses();
    for (int core = 0; core < n.num_cores(); ++core) {
      c.cache_hits += n.core(core).cache().hits();
      c.cache_misses += n.core(core).cache().misses();
    }
    for (int socket = 0; socket < n.params().sockets; ++socket) {
      c.mc_reads += n.mc(socket).reads();
      c.mc_writes += n.mc(socket).writes();
    }
    const rmc::Rmc& r = cluster.rmc(nid);
    c.rmc_requests += r.client_requests();
    c.rmc_round_trip_ps += r.round_trip().sum();
    c.rmc_round_trips += r.round_trip().count();
    c.rmc_port_wait_ps += r.port_wait().sum();
    c.rmc_port_waits += r.port_wait().count();
  }
  c.noc_packets = cluster.fabric().packets_delivered();
  cluster.fabric().for_each_link(
      [&](ht::NodeId, ht::NodeId, int, const ht::Link& link) {
        c.link_traversals += link.packets();
      });
  if (const swap::SwapManager* sw = space.swapper()) {
    c.swap_accesses = c.accesses;
    c.swap_faults = sw->faults();
    c.swap_major_faults = sw->major_faults();
    c.swap_evictions = sw->evictions();
    c.swap_dirty_writebacks = sw->dirty_writebacks();
  }
  return c;
}

void SpanLog::write_json(std::ostream& out) const {
  out.precision(9);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
        << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Iteration::note_rss() {
  // Resident pages are the second field of /proc/self/statm.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  const double mib = static_cast<double>(resident) *
                     static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
  peak_rss_mib = std::max(peak_rss_mib, mib);
}

void Iteration::check(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                      const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    failures.push_back(what + ": " + std::to_string(failed_ops) + " of " +
                       std::to_string(attempted_ops) + " failed");
  }
}

namespace {

// ---------------------------------------------------------------------------
// One simulated machine and the phases every workload goes through
// ---------------------------------------------------------------------------

struct Machine {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<core::MemorySpace> space;
};

/// The virtual address of a space's first mapping: map_range reserves
/// ranges in call order from Params::va_base, each followed by one guard
/// page. The self-test faults and some checks find their data from here.
constexpr core::VAddr kFirstMapping = core::MemorySpace::Params{}.va_base;

core::MemorySpace::Params space_params(Mode mode,
                                       std::uint64_t resident_bytes = 0) {
  core::MemorySpace::Params p;
  p.mode = mode;
  if (mode == Mode::kRemoteRegion) {
    p.placement = os::RegionManager::Placement::kRemoteOnly;
  }
  p.swap.resident_limit_bytes = resident_bytes;
  return p;
}

Machine build_machine(const RunOptions& o, Iteration& it,
                      const std::string& label, ht::NodeId home,
                      const core::MemorySpace::Params& p) {
  Timed t(o.log, "core.cluster_build", &it.ph.cluster_build);
  Machine m;
  m.engine = std::make_unique<sim::Engine>();
  if (o.tracer != nullptr) {
    o.tracer->begin_process(label);
    m.engine->set_tracer(o.tracer);
  }
  m.cluster = std::make_unique<core::Cluster>(*m.engine, core::ClusterConfig{});
  m.space = std::make_unique<core::MemorySpace>(*m.cluster, home, p);
  return m;
}

/// Runs `task` to completion as untimed workload setup.
void setup_phase(Machine& m, const RunOptions& o, Iteration& it,
                 const char* name, sim::Task<void> task) {
  Timed t(o.log, name, &it.ph.workload_setup);
  core::Runner setup(*m.engine);
  setup.spawn(std::move(task));
  setup.run_all();
}

/// The measured phase: `spawn(runner)` starts the simulated threads.
template <typename Spawn>
void measured_phase(Machine& m, const RunOptions& o, Iteration& it,
                    Spawn&& spawn) {
  const Counts before = snapshot(*m.cluster, *m.space);
  {
    Timed t(o.log, "core.run", &it.ph.run);
    core::Runner run(*m.engine);
    spawn(run);
    run.run_all();
  }
  it.counts += snapshot(*m.cluster, *m.space) - before;
  it.note_rss();
}

/// Destroys the workload (through `drop`) and then the machine, innermost
/// first, as one timed phase.
template <typename Drop>
void teardown(Machine& m, const RunOptions& o, Iteration& it, Drop&& drop) {
  it.note_rss();
  Timed t(o.log, "core.teardown", &it.ph.teardown);
  drop();
  m.space.reset();
  m.cluster.reset();
  m.engine.reset();
}

// ---------------------------------------------------------------------------
// parsec_region: the four Fig. 11 kernels in the remote region
// ---------------------------------------------------------------------------

/// Per-kernel seed derived from the benchmark seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 1000003ULL + k * 7919ULL + 1;
}

/// One Fig. 11 kernel on a fresh cluster, home node 1, remote-only region
/// placement: setup, `before_run(space, kernel)`, the measured run on one
/// simulated thread, `after_run(space, kernel)` (the checks), teardown.
template <typename Kernel, typename Before, typename After>
void run_kernel(const RunOptions& o, Iteration& it, const std::string& name,
                const typename Kernel::Params& p, Before&& before_run,
                After&& after_run) {
  double unused = 0;
  Timed root(o.log, ("parsec." + name).c_str(), &unused);
  Machine m = build_machine(o, it, name, 1, space_params(Mode::kRemoteRegion));
  auto w = std::make_unique<Kernel>(*m.space, p);
  setup_phase(m, o, it, "core.workload_setup", w->setup());
  before_run(*m.space, *w);
  measured_phase(m, o, it, [&](core::Runner& run) {
    run.spawn([](Kernel& k) -> sim::Task<void> {
      core::ThreadCtx t;
      co_await k.run(t);
    }(*w));
  });
  after_run(*m.space, *w);
  teardown(m, o, it, [&] { w.reset(); });
}

/// Closed-form Black-Scholes price with the normal CDF taken from
/// std::erfc, independent of the program's Abramowitz-Stegun polynomial.
double erfc_price(const workloads::Blackscholes::OptionData& o) {
  const auto cdf = [](double x) {
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
  };
  const double sqrt_t = std::sqrt(o.maturity);
  const double drift = o.rate + o.volatility * o.volatility / 2.0;
  const double d1 = (std::log(o.spot / o.strike) + drift * o.maturity) /
                    (o.volatility * sqrt_t);
  const double d2 = d1 - o.volatility * sqrt_t;
  const double discounted = o.strike * std::exp(-o.rate * o.maturity);
  if (o.is_put) return discounted * cdf(-d2) - o.spot * cdf(-d1);
  return o.spot * cdf(d1) - discounted * cdf(d2);
}

void run_blackscholes(const RunOptions& o, Iteration& it) {
  using workloads::Blackscholes;
  Blackscholes::Params p;
  p.options = o.small ? 20'000 : 1'200'000;
  p.seed = sub_seed(o.seed, 1);
  const auto corrupt = [&](core::MemorySpace& space, Blackscholes&) {
    if (o.fault != Fault::kBlackscholesOption) return;
    // OptionData::spot is at byte 0 of each 48-byte record.
    for (std::uint64_t i = 0; i < 64; ++i) {
      space.poke_pod<double>(kFirstMapping + i * 48, 1.0e6);
    }
  };
  const auto check = [&](core::MemorySpace&, Blackscholes& w) {
    Timed t(o.log, "core.verify", &it.ph.verify);
    // Regenerate the seeded options exactly as Blackscholes::setup draws
    // them, and price them apart from the simulated memory path. The
    // program's normal CDF is the A-S 26.2.17 polynomial, |error| < 7.5e-8,
    // so each price may differ by at most (spot + discounted strike) times
    // that bound; 1e-9 relative covers the floating-point summation.
    sim::Rng rng(p.seed);
    double own = 0, bound = 0, magnitude = 0;
    for (std::uint64_t i = 0; i < p.options; ++i) {
      Blackscholes::OptionData d{};
      d.spot = 20.0 + rng.uniform() * 80.0;
      d.strike = 20.0 + rng.uniform() * 80.0;
      d.rate = 0.01 + rng.uniform() * 0.09;
      d.volatility = 0.10 + rng.uniform() * 0.50;
      d.maturity = 0.25 + rng.uniform() * 2.0;
      d.is_put = static_cast<std::uint32_t>(rng.below(2));
      const double price = erfc_price(d);
      own += price;
      magnitude += std::fabs(price);
      bound += (d.spot + d.strike * std::exp(-d.rate * d.maturity)) * 7.5e-8;
    }
    const bool ok = std::fabs(w.checksum() - own) <= bound + 1e-9 * magnitude;
    it.check(1, ok ? 0 : 1, "blackscholes checksum vs erfc prices");
  };
  run_kernel<Blackscholes>(o, it, "blackscholes", p, corrupt, check);
}

void run_raytrace(const RunOptions& o, Iteration& it) {
  using workloads::Raytrace;
  Raytrace::Params p;
  p.depth = o.small ? 12 : 20;
  p.rays = o.small ? 2'000 : 50'000;
  p.seed = sub_seed(o.seed, 2);
  const auto corrupt = [&](core::MemorySpace& space, Raytrace& w) {
    if (o.fault != Fault::kRaytraceLeaf) return;
    // Scramble the first leaves' BvhNode::checksum_seed (byte 56 of 64).
    const std::uint64_t first_leaf = w.leaf_count() - 1;
    for (std::uint64_t l = 0; l < std::min<std::uint64_t>(256, w.leaf_count());
         ++l) {
      space.poke_pod<std::uint64_t>(kFirstMapping + (first_leaf + l) * 64 + 56,
                                    0xdeadbeefULL + l);
    }
  };
  const auto check = [&](core::MemorySpace&, Raytrace& w) {
    Timed t(o.log, "core.verify", &it.ph.verify);
    it.check(1, w.result_hash() == w.expected_hash() ? 0 : 1,
             "raytrace hash vs expected_hash()");
  };
  run_kernel<Raytrace>(o, it, "raytrace", p, corrupt, check);
}

/// Total Manhattan wire length of the netlist, from two page-by-page
/// passes over it: the first keeps a host copy of the positions, the
/// second sums every element's distance to its neighbours. (The program's
/// Canneal::total_wire_length peeks each neighbour record through the
/// functional path instead, seven peeks per element.)
double wire_length(core::MemorySpace& space, std::uint64_t count) {
  using Element = workloads::Canneal::Element;
  constexpr std::uint64_t kPerPage = 4096 / sizeof(Element);
  std::array<Element, kPerPage> page{};
  const auto for_each_element = [&](auto&& fn) {
    for (std::uint64_t i = 0; i < count; i += kPerPage) {
      const std::uint64_t n = std::min(kPerPage, count - i);
      space.peek(kFirstMapping + i * sizeof(Element),
                 std::as_writable_bytes(std::span(page.data(), n)));
      for (std::uint64_t k = 0; k < n; ++k) fn(page[k]);
    }
  };
  std::vector<std::array<std::int32_t, 2>> pos;
  pos.reserve(count);
  for_each_element([&](const Element& e) { pos.push_back({e.x, e.y}); });
  double total = 0.0;
  for_each_element([&](const Element& e) {
    for (std::uint32_t nb : e.neighbors) {
      total += static_cast<double>(std::llabs(std::int64_t{e.x} - pos[nb][0]) +
                                   std::llabs(std::int64_t{e.y} - pos[nb][1]));
    }
  });
  return total;
}

void run_canneal(const RunOptions& o, Iteration& it) {
  using workloads::Canneal;
  Canneal::Params p;
  p.elements = o.small ? 1 << 14 : 1 << 21;
  p.steps = o.small ? 500 : 8'000;
  p.seed = sub_seed(o.seed, 3);
  double initial = 0;
  const auto measure = [&](core::MemorySpace& space, Canneal&) {
    Timed t(o.log, "core.verify", &it.ph.verify);
    initial = wire_length(space, p.elements);
  };
  const auto check = [&](core::MemorySpace& space, Canneal&) {
    if (o.fault == Fault::kCannealSpread) {
      // Element::x is at byte 0 of each 64-byte record.
      for (std::uint64_t e = 0; e < 64; ++e) {
        space.poke_pod<std::int32_t>(kFirstMapping + e * 64, 1'000'000'000);
      }
    }
    Timed t(o.log, "core.verify", &it.ph.verify);
    it.check(1, wire_length(space, p.elements) < initial ? 0 : 1,
             "canneal wire length must decrease");
  };
  run_kernel<Canneal>(o, it, "canneal", p, measure, check);
}

void run_streamcluster(const RunOptions& o, Iteration& it) {
  using workloads::Streamcluster;
  Streamcluster::Params p;
  p.points = o.small ? 8'000 : 400'000;
  p.seed = sub_seed(o.seed, 4);
  const auto corrupt = [&](core::MemorySpace& space, Streamcluster&) {
    if (o.fault != Fault::kStreamclusterPoint) return;
    // Move the first points far out along one axis each, so they land on
    // other centers.
    for (std::uint64_t i = 0; i < 64; ++i) {
      for (int d = 0; d < Streamcluster::kDims; ++d) {
        space.poke_pod<float>(kFirstMapping + i * 64 + d * 4,
                              d == static_cast<int>(i % 16) ? 1e6f : -1e6f);
      }
    }
  };
  const auto check = [&](core::MemorySpace&, Streamcluster& w) {
    Timed t(o.log, "core.verify", &it.ph.verify);
    it.check(1, w.assignment_sum() == w.expected_assignment_sum() ? 0 : 1,
             "streamcluster assignment sum vs expected_assignment_sum()");
  };
  run_kernel<Streamcluster>(o, it, "streamcluster", p, corrupt, check);
}

void run_parsec_region(const RunOptions& o, Iteration& it) {
  double unused = 0;
  Timed root(o.log, "workload.parsec_region", &unused);
  run_blackscholes(o, it);
  run_raytrace(o, it);
  run_canneal(o, it);
  run_streamcluster(o, it);
}

// ---------------------------------------------------------------------------
// btree_swap: Fig. 10's b-tree under remote swap
// ---------------------------------------------------------------------------

struct BtreeOp {
  std::uint64_t key;
  bool insert;
};

void run_btree_swap(const RunOptions& o, Iteration& it) {
  const int fanout = 192;
  const std::uint64_t keys = o.small ? 20'000 : 4'000'000;
  const std::uint64_t resident = o.small ? std::uint64_t{64} << 10
                                         : std::uint64_t{24} << 20;
  const std::uint64_t warm_searches = o.small ? 200 : 2'000;
  const std::uint64_t ops_count = o.small ? 2'000 : 20'000;

  // Inputs: 90 % searches over [0, 2 keys), 10 % inserts of even keys,
  // which the odd-keyed build left out.
  std::vector<BtreeOp> ops;
  ops.reserve(ops_count);
  sim::Rng rng(sub_seed(o.seed, 11));
  for (std::uint64_t i = 0; i < ops_count; ++i) {
    if (rng.below(10) == 0) {
      ops.push_back({2 * rng.below(keys), true});
    } else {
      ops.push_back({rng.below(2 * keys), false});
    }
  }

  double unused = 0;
  Timed root(o.log, "workload.btree_swap", &unused);
  Machine m = build_machine(o, it, "btree_swap", 1,
                            space_params(Mode::kRemoteSwap, resident));
  auto alloc = std::make_unique<core::RemoteAllocator>(*m.space);
  auto tree = std::make_unique<workloads::BTree>(*m.space, *alloc, fanout);
  const auto odd_key = [](std::uint64_t i) { return 2 * i + 1; };
  setup_phase(m, o, it, "core.workload_setup", tree->bulk_build(keys, odd_key));
  setup_phase(m, o, it, "core.warmup",
              [](workloads::BTree& t, std::uint64_t n, std::uint64_t range,
                 std::uint64_t seed) -> sim::Task<void> {
                core::ThreadCtx ctx;
                sim::Rng r(seed);
                for (std::uint64_t i = 0; i < n; ++i) {
                  co_await t.search(ctx, r.below(range));
                }
              }(*tree, warm_searches, 2 * keys, sub_seed(o.seed, 12)));
  if (o.fault == Fault::kBtreeLeaf) {
    // The allocator's first arena is the space's first mapping, and the
    // bulk build allocates the leftmost leaf first: zero its keys.
    for (int k = 0; k < fanout - 1; ++k) {
      const core::VAddr key = kFirstMapping + 8 + static_cast<core::VAddr>(k) * 8;
      m.space->poke_pod<std::uint64_t>(key, 0);
    }
  }

  std::vector<std::uint8_t> answers(ops.size(), 0);
  measured_phase(m, o, it, [&](core::Runner& run) {
    run.spawn([](workloads::BTree& t, const std::vector<BtreeOp>& list,
                 std::vector<std::uint8_t>& out) -> sim::Task<void> {
      core::ThreadCtx ctx;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].insert) {
          co_await t.insert(ctx, list[i].key);
        } else {
          out[i] = (co_await t.search(ctx, list[i].key)) ? 1 : 0;
        }
      }
    }(*tree, ops, answers));
  });
  if (o.fault == Fault::kBtreeExtraKey) {
    core::Runner extra(*m.engine);
    extra.spawn([](workloads::BTree& t, std::uint64_t key) -> sim::Task<void> {
      core::ThreadCtx ctx;
      co_await t.insert(ctx, key);
    }(*tree, 2 * keys + 2));
    extra.run_all();
  }

  {
    Timed t(o.log, "core.verify", &it.ph.verify);
    // Oracle: the key set, odd build keys plus the inserts so far.
    std::unordered_set<std::uint64_t> inserted;
    std::uint64_t wrong = 0, searches = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t k = ops[i].key;
      if (ops[i].insert) {
        inserted.insert(k);
        continue;
      }
      ++searches;
      const bool member =
          (k % 2 == 1 && k < 2 * keys) || inserted.count(k) != 0;
      if ((answers[i] != 0) != member) ++wrong;
    }
    it.check(searches, wrong, "btree search answers vs key set");

    bool valid = true;
    try {
      tree->validate();
    } catch (const std::exception&) {
      valid = false;
    }
    it.check(1, valid ? 0 : 1, "btree validate()");

    std::vector<std::uint64_t> extra(inserted.begin(), inserted.end());
    std::sort(extra.begin(), extra.end());
    const std::vector<std::uint64_t> all = tree->collect_all();
    bool same = all.size() == keys + extra.size();
    std::size_t e = 0;
    std::uint64_t odd = 1;
    for (std::size_t i = 0; same && i < all.size(); ++i) {
      std::uint64_t want;
      if (e < extra.size() && (odd >= 2 * keys || extra[e] < odd)) {
        want = extra[e++];
      } else {
        want = odd;
        odd += 2;
      }
      same = all[i] == want;
    }
    it.check(1, same ? 0 : 1, "btree collect_all() vs key set");
  }
  teardown(m, o, it, [&] {
    tree.reset();
    alloc.reset();
  });
}

// ---------------------------------------------------------------------------
// random_fill: Fig. 7's "4 servers, 4t, 3 hops" scenario
// ---------------------------------------------------------------------------

constexpr ht::NodeId kRandomClient = 6;  // (1,1) on the 4x4 mesh
constexpr int kRandomThreads = 4;

void run_random_fill(const RunOptions& o, Iteration& it) {
  const std::vector<ht::NodeId> servers = {4, 12, 13, 15};  // 3 hops from 6
  const std::uint64_t buffer = o.small ? std::uint64_t{4} << 20
                                       : std::uint64_t{256} << 20;
  const std::uint64_t total_reads = o.small ? 4'000 : 40'000;
  const std::uint64_t samples = 4'096;

  workloads::RandomAccess::Params rp;
  rp.buffer_bytes = buffer / servers.size();
  rp.accesses_per_thread = total_reads / kRandomThreads;
  rp.seed = sub_seed(o.seed, 21);
  rp.verify = true;

  // RandomAccess::setup maps one slice per server, in server order, laid
  // out as kFirstMapping describes.
  const std::uint64_t words_per_slice = rp.buffer_bytes / 8;
  const std::uint64_t total_words = words_per_slice * servers.size();
  const auto word_va = [&](std::uint64_t word) {
    const core::VAddr stride = rp.buffer_bytes + 4096;
    return kFirstMapping +
           (word / words_per_slice) * stride + (word % words_per_slice) * 8;
  };

  double unused = 0;
  Timed root(o.log, "workload.random_fill", &unused);
  Machine m = build_machine(o, it, "random_fill", kRandomClient,
                            space_params(Mode::kRemoteRegion));
  auto ra = std::make_unique<workloads::RandomAccess>(*m.space, rp);
  setup_phase(m, o, it, "core.workload_setup", ra->setup(servers));

  // The sample of words to peek after the run, drawn from the seed.
  std::vector<std::uint64_t> sample(samples);
  sim::Rng pick(sub_seed(o.seed, 22));
  for (auto& w : sample) w = pick.below(total_words);
  if (o.fault == Fault::kRandomReadWord) {
    // Thread 0's first read, drawn as RandomAccess::thread_fn draws it.
    sim::Rng first(rp.seed * 7919 + 0);
    const std::uint64_t w = first.below(total_words);
    m.space->poke_pod<std::uint64_t>(word_va(w),
                                     workloads::RandomAccess::pattern(w) + 1);
  }
  if (o.fault == Fault::kRandomSampleWord) {
    m.space->poke_pod<std::uint64_t>(
        word_va(sample[0]), workloads::RandomAccess::pattern(sample[0]) + 1);
  }

  const int threads =
      o.fault == Fault::kRandomDropThread ? kRandomThreads - 1 : kRandomThreads;
  measured_phase(m, o, it, [&](core::Runner& run) {
    for (int t = 0; t < threads; ++t) run.spawn(ra->thread_fn(t, t));
  });

  {
    Timed t(o.log, "core.verify", &it.ph.verify);
    it.check(total_reads, ra->errors(), "random reads vs pattern");
    const std::uint64_t done = ra->total_reads();
    it.check(1, done == total_reads ? 0 : 1, "random total_reads == target");
    std::uint64_t wrong = 0;
    for (std::uint64_t w : sample) {
      // Own copy of RandomAccess::pattern.
      const std::uint64_t want =
          w * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
      if (m.space->peek_pod<std::uint64_t>(word_va(w)) != want) ++wrong;
    }
    it.check(samples, wrong, "random sampled words vs pattern formula");
  }
  teardown(m, o, it, [&] { ra.reset(); });
}

using WorkloadFn = void (*)(const RunOptions&, Iteration&);

const std::vector<std::pair<std::string, WorkloadFn>>& workloads_table() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kTable = {
      {"parsec_region", &run_parsec_region},
      {"btree_swap", &run_btree_swap},
      {"random_fill", &run_random_fill},
  };
  return kTable;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : workloads_table()) names.push_back(name);
  return names;
}

Iteration run_workload(const std::string& name, const RunOptions& opt) {
  for (const auto& [known, fn] : workloads_table()) {
    if (known != name) continue;
    Iteration it;
    const Clock::time_point t0 = Clock::now();
    fn(opt, it);
    it.wall_s = seconds_since(t0);
    return it;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
