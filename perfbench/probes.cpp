// Layer probes: one small loop per layer kernel, each calling a single
// layer's public function on a warmed cluster and reporting host ns/op.
//
// Kernels nest. A remote fill, for example, runs the core access path, two
// fabric traversals, a donor memory access, engine events and coroutine
// frames. Each probe therefore also counts, per op, the child kernels it
// ran (from the same public counters the workloads read), and its self
// cost is its ns/op minus those children at their own self cost:
//
//   leaves:          sim.event, sim.coro_resume, os.tlb_lookup,
//                    os.translate, mem.backing_rw
//   noc.traverse     = self + events + frames
//   mem.mc_access    = self + events + frames
//   core.hit_access  = self + events + frames + TLB lookups + walks
//                      + backing_rw
//   mem.local_fill   = node self (the slow path of one cache miss)
//                      + accesses x (core + backing_rw) + events + frames
//                      + TLB lookups + walks + MC ops x mem
//   rmc.remote_fill, swap.major_fault, swap.resident_hit
//                    = self + accesses x (core + backing_rw) + events
//                      + frames + TLB lookups + walks + packets x noc
//                      + MC ops x mem + cache misses x node
//   os.map_page      = self + events + frames + packets x noc
//   core.poke        = self + translate + backing_rw
//
// The attribution in main.cpp multiplies each self cost by the matching
// count of the measured phase, so no host nanosecond is counted twice.

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/runner.hpp"
#include "sim/frame_pool.hpp"

namespace perfbench {

using namespace ms;
using Mode = core::MemorySpace::Mode;

namespace {

constexpr int kReps = 9;

/// Results of the pure lookup loops land here, so they cannot be dropped.
std::uint64_t g_sink = 0;

/// A simulated machine. Probes that leave the core caches alone share one;
/// each probe that depends on cache state gets its own.
struct Machine {
  sim::Engine engine;
  core::Cluster cluster{engine, core::ClusterConfig{}};
};

/// A probe's process space on a machine, homed on node 1.
struct Rig {
  std::shared_ptr<Machine> machine;
  std::unique_ptr<core::MemorySpace> space;

  Rig(std::shared_ptr<Machine> m, Mode mode, std::uint64_t resident = 0)
      : machine(std::move(m)) {
    core::MemorySpace::Params p;
    p.mode = mode;
    if (mode == Mode::kRemoteRegion) {
      p.placement = os::RegionManager::Placement::kRemoteOnly;
    }
    p.swap.resident_limit_bytes = resident;
    space = std::make_unique<core::MemorySpace>(machine->cluster, 1, p);
  }

  core::Cluster& cluster() { return machine->cluster; }

  void run(sim::Task<void> task) {
    core::Runner r(machine->engine);
    r.spawn(std::move(task));
    r.run_all();
  }

  core::VAddr map(std::uint64_t bytes, ht::NodeId donor = ht::kNoNode) {
    core::VAddr base = 0;
    run([](core::MemorySpace& s, std::uint64_t b, ht::NodeId d,
           core::VAddr* out) -> sim::Task<void> {
      *out = d == ht::kNoNode ? co_await s.map_range(b)
                              : co_await s.map_range_on(b, d);
    }(*space, bytes, donor, &base));
    return base;
  }

  Counts counts() { return snapshot(cluster(), *space); }
};

std::shared_ptr<Machine> own_machine() { return std::make_shared<Machine>(); }

/// One probe under way: the repetition to time, its op count, and the
/// machine it runs on. The repetitions of all probes are interleaved, so a
/// change in host speed during the probes moves parents and children alike.
struct Loop {
  const char* name = nullptr;
  Probe* out;
  std::uint64_t ops;
  std::function<void()> rep;
  std::shared_ptr<void> keep;
  std::vector<double> ns;
};

/// Fills in a probe's per-op child counts from counter deltas over one
/// repetition that performed `ops` operations.
void set_children(Probe& p, const Counts& d, std::uint64_t ops) {
  const auto per = [&](double v) { return v / static_cast<double>(ops); };
  p.events = per(static_cast<double>(d.events));
  p.frames = per(static_cast<double>(d.frames_pooled + d.frames_heap));
  p.accesses = per(static_cast<double>(d.accesses));
  p.tlb_lookups = per(static_cast<double>(d.tlb_hits + d.tlb_misses));
  p.tlb_walks = per(static_cast<double>(d.tlb_misses));
  p.packets = per(static_cast<double>(d.noc_packets));
  p.mc_ops = per(static_cast<double>(d.mc_reads + d.mc_writes));
  p.misses = per(static_cast<double>(d.cache_misses));
}

/// A probe on `rig` whose children are counted over one repetition;
/// `ops_of(delta)` gives a repetition's op count.
template <typename OpsOf>
Loop counted(Probe& out, std::shared_ptr<Rig> rig, std::function<void()> rep,
             OpsOf&& ops_of) {
  const Counts c0 = rig->counts();
  rep();
  const Counts d = rig->counts() - c0;
  const std::uint64_t ops = ops_of(d);
  set_children(out, d, ops);
  return Loop{nullptr, &out, ops, std::move(rep), std::move(rig), {}};
}

sim::Task<void> read_lines(core::MemorySpace& s, core::VAddr base,
                           std::uint64_t lines, std::uint64_t step,
                           std::uint64_t count) {
  core::ThreadCtx t;
  std::uint64_t line = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await s.read_u64(t, base + line * 64);
    line = (line + step) % lines;
  }
  co_await s.sync(t);
}

// ---- leaves ---------------------------------------------------------------

Loop probe_event(Probe& out) {
  constexpr std::uint64_t kOps = 1'000'000;
  auto engine = std::make_shared<sim::Engine>();
  out.events = 1;
  const auto rep = [e = engine.get()] {
    e->spawn([](sim::Engine& en, std::uint64_t n) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) co_await en.delay(1);
    }(*e, kOps));
    e->run();
  };
  return Loop{nullptr, &out, kOps, rep, engine, {}};
}

sim::Task<std::uint64_t> leaf_task(std::uint64_t x) { co_return x + 1; }

Loop probe_coro_resume(Probe& out) {
  constexpr std::uint64_t kOps = 1'000'000;
  auto engine = std::make_shared<sim::Engine>();
  out.frames = 1;
  const auto rep = [e = engine.get()] {
    e->spawn([](std::uint64_t n) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) g_sink += co_await leaf_task(i);
    }(kOps));
    e->run();
  };
  return Loop{nullptr, &out, kOps, rep, engine, {}};
}

Loop probe_translate(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kPages = 1024;
  constexpr std::uint64_t kOps = 2'000'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  const core::VAddr base = rig->map(kPages * 4096, 2);
  return Loop{nullptr, &out, kOps, [r = rig.get(), base] {
                std::uint64_t sink = 0;
                for (std::uint64_t i = 0; i < kOps; ++i) {
                  sink += *r->space->page_table().translate(
                      base + ((i * 97) % kPages) * 4096);
                }
                g_sink += sink;
              },
              rig, {}};
}

Loop probe_tlb_lookup(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kPages = 32;  // half the default 64 entries
  constexpr std::uint64_t kOps = 2'000'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  const core::VAddr base = rig->map(kPages * 4096, 2);
  os::Tlb& tlb = rig->space->tlb();
  for (std::uint64_t i = 0; i < kPages; ++i) {
    tlb.insert(base + i * 4096,
               *rig->space->page_table().translate(base + i * 4096));
  }
  return Loop{nullptr, &out, kOps, [&tlb, base] {
                std::uint64_t sink = 0;
                for (std::uint64_t i = 0; i < kOps; ++i) {
                  const core::VAddr va = base + ((i * 7) % kPages) * 4096;
                  sink += tlb.lookup_slot(va)->frame;
                }
                g_sink += sink;
              },
              rig, {}};
}

Loop probe_backing_rw(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kWords = 32 * 1024;  // 256 KiB on one node
  constexpr std::uint64_t kOps = 2'000'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  mem::BackingStore& store = rig->cluster().store();
  for (std::uint64_t w = 0; w < kWords; ++w) store.write_u64(2, w * 8, w);
  return Loop{nullptr, &out, kOps, [&store] {
                std::uint64_t sink = 0;
                for (std::uint64_t i = 0; i < kOps; i += 2) {
                  const ht::PAddr a = ((i * 8191) % kWords) * 8;
                  sink += store.read_u64(2, a);
                  store.write_u64(2, a, sink);
                }
              },
              rig, {}};
}

Loop probe_poke(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kWords = 128 * 1024;  // 1 MiB
  constexpr std::uint64_t kOps = 1'000'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  const core::VAddr base = rig->map(kWords * 8, 2);
  out.tlb_walks = 1;  // one PageTable::translate per poke
  return Loop{nullptr, &out, kOps, [r = rig.get(), base] {
                for (std::uint64_t i = 0; i < kOps; ++i) {
                  r->space->poke_pod<std::uint64_t>(base + (i % kWords) * 8, i);
                }
              },
              rig, {}};
}

// ---- composites -----------------------------------------------------------

Loop probe_traverse(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kOps = 100'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  return counted(out, rig, [r = rig.get()] {
    r->run([](noc::Fabric& f, std::uint64_t n) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) {
        ht::Packet pkt;
        pkt.type = ht::PacketType::kReadReq;
        pkt.src = 1;
        pkt.dst = 2;
        pkt.size = 8;
        pkt.tag = i;
        co_await f.traverse(pkt);
      }
    }(r->cluster().fabric(), kOps));
  }, [](const Counts&) { return kOps; });
}

/// Timing-only memory-controller accesses, scattered over 64 MiB of one
/// controller's DRAM.
Loop probe_mc_access(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kOps = 100'000;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  return counted(out, rig, [r = rig.get()] {
    r->run([](mem::MemoryController& c, std::uint64_t n) -> sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) {
        co_await c.access(((i * 4099) % (1 << 20)) * 64, 64, false);
      }
    }(r->cluster().node(2).mc(0), kOps));
  }, [](const Counts&) { return kOps; });
}

Loop probe_hit_access(Probe& out) {
  constexpr std::uint64_t kLines = 256;  // 16 KiB: stays in the core cache
  constexpr std::uint64_t kOps = 200'000;
  auto rig = std::make_shared<Rig>(own_machine(), Mode::kRemoteRegion);
  const core::VAddr base = rig->map(kLines * 64, 2);
  rig->run(read_lines(*rig->space, base, kLines, 1, kLines));  // warm
  return counted(out, rig, [r = rig.get(), base] {
    r->run(read_lines(*r->space, base, kLines, 1, kOps));
  }, [](const Counts&) { return kOps; });
}

/// Cold line fills from the space's own mapping: each repetition walks a
/// range four times the core cache in a scattered line order (no stream
/// for a prefetcher), so nearly every read misses. Ops are memory-
/// controller ops, or RMC requests for a remote fill.
Loop probe_fill(Probe& out, Mode mode, ht::NodeId donor, bool per_request) {
  constexpr std::uint64_t kLines = 32 * 1024;  // 2 MiB
  constexpr std::uint64_t kStep = 4099;        // odd: visits every line
  auto rig = std::make_shared<Rig>(own_machine(), mode);
  const core::VAddr base = rig->map(kLines * 64, donor);
  const auto rep = [r = rig.get(), base] {
    r->run(read_lines(*r->space, base, kLines, kStep, kLines));
  };
  rep();  // warm the TLB and the cache's steady state
  return counted(out, rig, rep, [per_request](const Counts& d) {
    return per_request ? d.rmc_requests : d.mc_reads + d.mc_writes;
  });
}

/// Swap faults: a resident set of 256 pages cycled over 2048 pages, so
/// every access evicts and reloads (a major fault).
Loop probe_major_fault(Probe& out) {
  constexpr std::uint64_t kPages = 2048;
  constexpr std::uint64_t kCycles = 8;
  auto rig = std::make_shared<Rig>(own_machine(), Mode::kRemoteSwap,
                                   std::uint64_t{1} << 20);
  const core::VAddr base = rig->map(kPages * 4096);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    rig->space->poke_pod<std::uint64_t>(base + i * 4096, i);
  }
  const auto rep = [r = rig.get(), base] {
    r->run(read_lines(*r->space, base, kPages * 64, 64, kPages * kCycles));
  };
  rep();  // every page now swap-backed and cycled
  return counted(out, rig, rep,
                 [](const Counts& d) { return d.swap_major_faults; });
}

Loop probe_resident_hit(Probe& out) {
  constexpr std::uint64_t kLines = 256;
  constexpr std::uint64_t kOps = 200'000;
  auto rig = std::make_shared<Rig>(own_machine(), Mode::kRemoteSwap,
                                   std::uint64_t{64} << 20);
  const core::VAddr base = rig->map(kLines * 64);
  rig->run(read_lines(*rig->space, base, kLines, 1, kLines));  // fault in
  return counted(out, rig, [r = rig.get(), base] {
    r->run(read_lines(*r->space, base, kLines, 1, kOps));
  }, [](const Counts&) { return kOps; });
}

/// Eager mapping on a pinned donor, as RandomAccess::setup maps each
/// server's slice: every repetition maps 64 MiB into a fresh space.
Loop probe_map_page(Probe& out, const std::shared_ptr<Machine>& shared) {
  constexpr std::uint64_t kPages = 16 * 1024;
  auto rig = std::make_shared<Rig>(shared, Mode::kRemoteRegion);
  using Spaces = std::vector<std::unique_ptr<core::MemorySpace>>;
  auto spaces = std::make_shared<Spaces>();
  const auto rep = [r = rig.get(), spaces] {
    spaces->push_back(std::make_unique<core::MemorySpace>(
        r->cluster(), 1, core::MemorySpace::Params{}));
    std::swap(r->space, spaces->back());
    r->map(kPages * 4096, 2);
  };
  rep();
  return counted(out, rig, rep, [](const Counts&) { return kPages; });
}

}  // namespace

ProbeSet run_probes(SpanLog* log) {
  ProbeSet s;
  const std::shared_ptr<Machine> shared = own_machine();
  std::vector<Loop> loops;
  const auto add = [&](const char* name, Loop l) {
    l.name = name;
    loops.push_back(std::move(l));
  };
  add("sim.event", probe_event(s.event));
  add("sim.coro_resume", probe_coro_resume(s.coro_resume));
  add("os.translate", probe_translate(s.translate, shared));
  add("os.tlb_lookup", probe_tlb_lookup(s.tlb_lookup, shared));
  add("mem.backing_rw", probe_backing_rw(s.backing_rw, shared));
  add("noc.traverse", probe_traverse(s.traverse, shared));
  add("core.poke", probe_poke(s.poke, shared));
  add("core.hit_access", probe_hit_access(s.hit_access));
  add("mem.mc_access", probe_mc_access(s.mc_access, shared));
  add("mem.local_fill",
      probe_fill(s.local_fill, Mode::kLocal, ht::kNoNode, false));
  add("rmc.remote_fill_1hop",
      probe_fill(s.remote_fill_1hop, Mode::kRemoteRegion, 2, true));
  add("rmc.remote_fill_6hop",
      probe_fill(s.remote_fill_6hop, Mode::kRemoteRegion, 16, true));
  add("swap.major_fault", probe_major_fault(s.major_fault));
  add("swap.resident_hit", probe_resident_hit(s.resident_hit));
  add("os.map_page", probe_map_page(s.map_page, shared));
  for (int r = 0; r < kReps; ++r) {
    for (Loop& l : loops) {
      double seconds = 0;
      {
        Timed t(log, l.name, &seconds);
        l.rep();
      }
      l.ns.push_back(seconds * 1e9 / static_cast<double>(l.ops));
    }
  }
  for (Loop& l : loops) {
    std::sort(l.ns.begin(), l.ns.end());
    l.out->ns = l.ns[l.ns.size() / 2];
  }

  // Self costs, leaves first (see the nesting at the top of this file).
  for (Probe* leaf : {&s.event, &s.coro_resume, &s.translate, &s.tlb_lookup,
                      &s.backing_rw}) {
    leaf->self_ns = leaf->ns;
  }
  const double ev = s.event.self_ns, coro = s.coro_resume.self_ns,
               tlb = s.tlb_lookup.self_ns, walk = s.translate.self_ns,
               backing = s.backing_rw.self_ns;
  const auto engine_children = [&](const Probe& p) {
    return p.events * ev + p.frames * coro;
  };
  s.traverse.self_ns = s.traverse.ns - engine_children(s.traverse);
  const double noc = s.traverse.self_ns;
  s.hit_access.self_ns = s.hit_access.ns - engine_children(s.hit_access) -
                         s.hit_access.tlb_lookups * tlb -
                         s.hit_access.tlb_walks * walk -
                         s.hit_access.accesses * backing;
  const double core = s.hit_access.self_ns;
  const auto access_children = [&](const Probe& p) {
    return engine_children(p) + p.accesses * (core + backing) +
           p.tlb_lookups * tlb + p.tlb_walks * walk;
  };
  s.mc_access.self_ns = s.mc_access.ns - engine_children(s.mc_access);
  const double mem = s.mc_access.self_ns;
  const auto fill_children = [&](const Probe& p) {
    return access_children(p) + p.packets * noc + p.mc_ops * mem;
  };
  s.local_fill.self_ns = s.local_fill.ns - fill_children(s.local_fill);
  const double node = s.local_fill.self_ns;
  for (Probe* p : {&s.remote_fill_1hop, &s.remote_fill_6hop, &s.major_fault,
                   &s.resident_hit}) {
    p->self_ns = p->ns - fill_children(*p) - p->misses * node;
  }
  s.map_page.self_ns = s.map_page.ns - engine_children(s.map_page) -
                       s.map_page.packets * noc;
  s.poke.self_ns = s.poke.ns - walk - backing;
  return s;
}

}  // namespace perfbench
