// memscale end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//   perfbench --selftest
//
// --trace 0 repeats whole iterations of the workload (fresh clusters each
// time) for about S seconds, at least three, and reports the end-to-end
// metrics over them: setup and RSS as medians, wall time and access rate
// from the slow side of the run (see run_untraced). --trace 1 runs a warm-up iteration, one with the
// sampled sim::Tracer attached (simulated-time segments, tracing overhead),
// an untraced one for the per-layer counts and phase times, and the layer
// probes, then attributes the measured phase to layers. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
// --selftest runs small iterations with deliberate faults and exits 1
// unless every correctness check catches its fault.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "sim/stats.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The q-quantile of `v` (0 <= q <= 1), interpolated linearly between the
/// two nearest order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void report_failures(const Iteration& it) {
  for (const std::string& f : it.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

// On a host shared with other tenants, the speed of one iteration swings
// by up to 1.6x with their load, and a run's median moves with how many
// fast spells it caught; its slow side varies less from run to run (see
// README.md). So wall time is the 90th percentile of the iterations and
// the access rate the 10th: the figures nine in ten iterations of the run
// reach or beat. Set-up time and RSS are medians.
int run_untraced(const std::string& workload, std::uint64_t seed,
                 double seconds) {
  constexpr int kMinIterations = 3;
  std::vector<double> setup, wall, rate, rss;
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;; ++i) {
    RunOptions opt;
    opt.seed = seed;
    const Iteration it = run_workload(workload, opt);
    report_failures(it);
    attempted += it.attempted;
    failed += it.failed;
    setup.push_back(it.setup_s());
    wall.push_back(it.wall_s);
    rate.push_back(ratio(static_cast<double>(it.counts.accesses), it.ph.run));
    rss.push_back(it.peak_rss_mib);
    const double elapsed = seconds_since(t0);
    const double per_iteration = elapsed / (i + 1);
    std::fprintf(stderr,
                 "iteration %d: setup %.3f s, wall %.3f s, run %.3f s, "
                 "%.0f accesses/s\n",
                 i + 1, it.setup_s(), it.wall_s, it.ph.run, rate.back());
    if (i + 1 >= kMinIterations && elapsed + per_iteration > seconds) break;
  }
  print_result(failed == 0, attempted, failed,
               {{"setup_s", median(setup), "s"},
                {"wall_s", quantile(wall, 0.9), "s"},
                {"accesses_per_s", quantile(rate, 0.1), "accesses/s"},
                {"peak_rss_mib", median(rss), "MiB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Sum of "<prefix>seg.<name>_ps" over sampled transactions, by segment.
std::map<std::string, double> segment_sums(const ms::sim::Tracer& tracer) {
  ms::sim::StatRegistry reg;
  tracer.export_txn_stats(reg, "txn.");
  std::map<std::string, double> sums;
  for (const auto& [name, s] : reg.samplers()) {
    const std::string seg = "txn.seg.";
    if (name.rfind(seg, 0) == 0 && name.size() > seg.size() + 3 &&
        name.compare(name.size() - 3, 3, "_ps") == 0 &&
        name.find('.', seg.size()) == std::string::npos) {
      sums[name.substr(seg.size(), name.size() - seg.size() - 3)] = s.sum();
    }
    if (name == "txn.total_ps") sums["total"] = s.sum();
  }
  return sums;
}

/// The probe table with each kernel's nested children, on stderr.
void print_probes(const ProbeSet& p) {
  const std::pair<const char*, const Probe*> rows[] = {
      {"sim.event", &p.event},
      {"sim.coro_resume", &p.coro_resume},
      {"os.translate", &p.translate},
      {"os.tlb_lookup", &p.tlb_lookup},
      {"mem.backing_rw", &p.backing_rw},
      {"noc.traverse", &p.traverse},
      {"core.poke", &p.poke},
      {"core.hit_access", &p.hit_access},
      {"mem.mc_access", &p.mc_access},
      {"mem.local_fill", &p.local_fill},
      {"rmc.remote_fill_1hop", &p.remote_fill_1hop},
      {"rmc.remote_fill_6hop", &p.remote_fill_6hop},
      {"swap.major_fault", &p.major_fault},
      {"swap.resident_hit", &p.resident_hit},
      {"os.map_page", &p.map_page},
  };
  std::fprintf(stderr,
               "%-22s %9s %9s | per op: %7s %7s %7s %7s %7s %7s %7s %7s\n",
               "probe", "ns/op", "self_ns", "events", "frames", "access",
               "tlb", "walks", "packets", "mc_ops", "misses");
  for (const auto& [name, r] : rows) {
    std::fprintf(stderr,
                 "%-22s %9.1f %9.1f | %16.2f %7.2f %7.2f %7.2f %7.2f %7.2f "
                 "%7.2f %7.2f\n",
                 name, r->ns, r->self_ns, r->events, r->frames, r->accesses,
                 r->tlb_lookups, r->tlb_walks, r->packets, r->mc_ops,
                 r->misses);
  }
}

int run_traced(const std::string& workload, std::uint64_t seed,
               const std::string& spans_path) {
  SpanLog log;
  RunOptions opt;
  opt.seed = seed;
  opt.log = &log;
  // The first iteration of a process pays one-off host costs (fresh heap
  // pages, frame-pool slabs); it only warms up.
  const Iteration warm = run_workload(workload, opt);
  report_failures(warm);

  // Sampled, bounded tracing: every 64th transaction, flight-recorder ring.
  ms::sim::Tracer tracer;
  tracer.enable_flight_recorder(1 << 14);
  tracer.set_sample_interval(64);
  opt.tracer = &tracer;
  const Iteration traced = run_workload(workload, opt);
  report_failures(traced);
  const std::map<std::string, double> seg = segment_sums(tracer);

  opt.tracer = nullptr;
  const Iteration plain = run_workload(workload, opt);
  report_failures(plain);

  double probes_s = 0;
  ProbeSet p;
  {
    Timed t(&log, "probes", &probes_s);
    p = run_probes(&log);
  }
  print_probes(p);
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    if (!out) throw std::runtime_error("cannot write " + spans_path);
    log.write_json(out);
  }

  const Counts& c = plain.counts;
  const double acc = static_cast<double>(c.accesses);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto pos = [](double v) { return std::max(v, 0.0); };
  const double ns = 1e-9;

  // Attribution of the measured phase: self cost x op count, per layer.
  const double sim_est =
      (d(c.events) * p.event.self_ns +
       d(c.frames_pooled + c.frames_heap) * p.coro_resume.self_ns) * ns;
  const double core_est = acc * pos(p.hit_access.self_ns) * ns;
  const double os_est = (d(c.tlb_hits + c.tlb_misses) * p.tlb_lookup.self_ns +
                         d(c.tlb_misses) * p.translate.self_ns) * ns;
  const double node_est = d(c.cache_misses) * pos(p.local_fill.self_ns) * ns;
  const double mem_est =
      (acc * p.backing_rw.self_ns +
       d(c.mc_reads + c.mc_writes) * pos(p.mc_access.self_ns)) * ns;
  const double hops = ratio(d(c.link_traversals), d(c.noc_packets));
  const double rmc_est = d(c.rmc_requests) * pos(p.rmc_self_ns(hops)) * ns;
  const double noc_est = d(c.noc_packets) * pos(p.traverse.self_ns) * ns;
  const double swap_est =
      (d(c.swap_major_faults) * pos(p.major_fault.self_ns) +
       d(c.swap_accesses - std::min(c.swap_accesses, c.swap_major_faults)) *
           pos(p.resident_hit.self_ns)) * ns;
  const double est_total =
      sim_est + core_est + os_est + node_est + mem_est + rmc_est + noc_est +
      swap_est;

  std::vector<Metric> m = {
      {"sim.events", d(c.events), "count"},
      {"sim.events_per_access", ratio(d(c.events), acc), "count"},
      {"sim.frames_pooled", d(c.frames_pooled), "count"},
      {"sim.frames_heap", d(c.frames_heap), "count"},
      {"sim.frames_per_access", ratio(d(c.frames_pooled + c.frames_heap), acc),
       "count"},
      {"sim.event_ns", p.event.ns, "ns"},
      {"sim.coro_resume_ns", p.coro_resume.ns, "ns"},
      {"core.cluster_build_s", plain.ph.cluster_build, "s"},
      {"core.workload_setup_s", plain.ph.workload_setup, "s"},
      {"core.run_s", plain.ph.run, "s"},
      {"core.verify_s", plain.ph.verify, "s"},
      {"core.teardown_s", plain.ph.teardown, "s"},
      {"core.accesses", acc, "count"},
      {"core.sim_ms", d(c.sim_ps) / 1e9, "ms"},
      {"core.poke_ns", p.poke.ns, "ns"},
      {"core.hit_access_ns", p.hit_access.ns, "ns"},
      {"core.self_ns", p.hit_access.self_ns, "ns"},
      {"os.tlb_hits", d(c.tlb_hits), "count"},
      {"os.tlb_misses", d(c.tlb_misses), "count"},
      {"os.tlb_flat_probes", d(c.tlb_flat_probes), "count"},
      {"os.translate_ns", p.translate.ns, "ns"},
      {"os.tlb_lookup_ns", p.tlb_lookup.ns, "ns"},
      {"os.map_page_ns", p.map_page.ns, "ns"},
      {"os.map_page_self_ns", p.map_page.self_ns, "ns"},
      {"node.fastpath_hits", d(c.fastpath_hits), "count"},
      {"node.slowpath_accesses", d(c.slowpath_accesses), "count"},
      {"node.fastpath_share",
       ratio(d(c.fastpath_hits), d(c.fastpath_hits + c.slowpath_accesses)),
       "ratio"},
      {"node.self_ns", p.local_fill.self_ns, "ns"},
      {"mem.cache_hits", d(c.cache_hits), "count"},
      {"mem.cache_misses", d(c.cache_misses), "count"},
      {"mem.mc_reads", d(c.mc_reads), "count"},
      {"mem.mc_writes", d(c.mc_writes), "count"},
      {"mem.backing_rw_ns", p.backing_rw.ns, "ns"},
      {"mem.mc_access_ns", p.mc_access.ns, "ns"},
      {"mem.self_ns", p.mc_access.self_ns, "ns"},
      {"mem.local_fill_ns", p.local_fill.ns, "ns"},
      {"rmc.client_requests", d(c.rmc_requests), "count"},
      {"rmc.round_trip_mean_ps",
       ratio(c.rmc_round_trip_ps, d(c.rmc_round_trips)), "ps"},
      {"rmc.port_wait_mean_ps", ratio(c.rmc_port_wait_ps, d(c.rmc_port_waits)),
       "ps"},
      {"rmc.remote_fill_1hop_ns", p.remote_fill_1hop.ns, "ns"},
      {"rmc.remote_fill_6hop_ns", p.remote_fill_6hop.ns, "ns"},
      {"rmc.self_ns", p.rmc_self_ns(hops), "ns"},
      {"noc.packets_delivered", d(c.noc_packets), "count"},
      {"noc.mean_hops", hops, "count"},
      {"noc.traverse_ns", p.traverse.ns, "ns"},
      {"noc.self_ns", p.traverse.self_ns, "ns"},
      {"swap.faults", d(c.swap_faults), "count"},
      {"swap.major_faults", d(c.swap_major_faults), "count"},
      {"swap.evictions", d(c.swap_evictions), "count"},
      {"swap.dirty_writebacks", d(c.swap_dirty_writebacks), "count"},
      {"swap.major_fault_ns", p.major_fault.ns, "ns"},
      {"swap.resident_hit_ns", p.resident_hit.ns, "ns"},
      {"swap.major_fault_self_ns", p.major_fault.self_ns, "ns"},
      {"swap.resident_hit_self_ns", p.resident_hit.self_ns, "ns"},
      {"sim.est_s", sim_est, "s"},
      {"core.est_s", core_est, "s"},
      {"os.est_s", os_est, "s"},
      {"node.est_s", node_est, "s"},
      {"mem.est_s", mem_est, "s"},
      {"rmc.est_s", rmc_est, "s"},
      {"noc.est_s", noc_est, "s"},
      {"swap.est_s", swap_est, "s"},
      {"closure", ratio(est_total, plain.ph.run), "ratio"},
  };
  const double total = seg.count("total") ? seg.at("total") : 0.0;
  for (const char* name : {"queue", "serialization", "link", "rmc", "memory",
                           "coherence", "swap", "other"}) {
    const double v = seg.count(name) ? seg.at(name) : 0.0;
    m.push_back({std::string("seg.") + name + "_share", ratio(v, total),
                 "ratio"});
  }
  m.push_back({"trace.overhead", ratio(traced.wall_s, plain.wall_s), "ratio"});

  const std::uint64_t attempted =
      warm.attempted + traced.attempted + plain.attempted;
  const std::uint64_t failed = warm.failed + traced.failed + plain.failed;
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest: every check must catch its deliberate fault
// ---------------------------------------------------------------------------

int run_selftest() {
  struct Case {
    const char* workload;
    Fault fault;
    const char* check;  ///< substring of the check that must fail
  };
  const Case cases[] = {
      {"parsec_region", Fault::kBlackscholesOption, "blackscholes checksum"},
      {"parsec_region", Fault::kRaytraceLeaf, "raytrace hash"},
      {"parsec_region", Fault::kCannealSpread, "canneal wire length"},
      {"parsec_region", Fault::kStreamclusterPoint, "streamcluster assignment"},
      {"btree_swap", Fault::kBtreeLeaf, "btree search answers"},
      {"btree_swap", Fault::kBtreeLeaf, "btree validate()"},
      {"btree_swap", Fault::kBtreeExtraKey, "btree collect_all()"},
      {"random_fill", Fault::kRandomReadWord, "random reads vs pattern"},
      {"random_fill", Fault::kRandomDropThread, "random total_reads"},
      {"random_fill", Fault::kRandomSampleWord, "random sampled words"},
  };
  int bad = 0;
  for (const std::string& w : workload_names()) {
    RunOptions opt;
    opt.small = true;
    const Iteration it = run_workload(w, opt);
    const bool ok = it.failed == 0 && it.attempted > 0;
    std::printf("%-14s no fault          -> %s (%llu checked ops)\n",
                w.c_str(), ok ? "pass" : "FAIL",
                static_cast<unsigned long long>(it.attempted));
    report_failures(it);
    bad += ok ? 0 : 1;
  }
  for (const Case& c : cases) {
    RunOptions opt;
    opt.small = true;
    opt.fault = c.fault;
    const Iteration it = run_workload(c.workload, opt);
    bool caught = false;
    for (const std::string& f : it.failures) {
      caught = caught || f.find(c.check) != std::string::npos;
    }
    std::printf("%-14s fault -> check '%s' %s\n", c.workload, c.check,
                caught ? "caught it" : "MISSED it");
    bad += caught ? 0 : 1;
  }
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE] | --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
    } else if (a == "--seconds") {
      seconds = std::stod(value());
    } else if (a == "--trace") {
      trace = std::stoi(value());
    } else if (a == "--spans") {
      spans = value();
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  try {
    if (selftest) return run_selftest();
    const std::vector<std::string> names = workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end()) {
      usage(("unknown workload '" + workload + "'").c_str());
    }
    if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
    return trace == 1 ? run_traced(workload, seed, spans)
                      : run_untraced(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
