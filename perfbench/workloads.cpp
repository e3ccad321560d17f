#include "workloads.hpp"

#include <sys/resource.h>

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "layers.hpp"
#include "order/rcm_serial.hpp"
#include "rcm/rcm_driver.hpp"
#include "service/service.hpp"
#include "sparse/generators.hpp"
#include "sparse/metrics.hpp"
#include "sparse/pattern_delta.hpp"

namespace perfbench {

using drcm::index_t;
using drcm::WallTimer;
namespace gen = drcm::sparse::gen;
namespace mps = drcm::mps;
namespace svc = drcm::service;
using Counters = std::map<std::string, std::uint64_t>;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

constexpr std::array<mps::Phase, 5> kOrderingPhases = {
    mps::Phase::kPeripheralSpmspv, mps::Phase::kPeripheralOther,
    mps::Phase::kOrderingSpmspv, mps::Phase::kOrderingSort,
    mps::Phase::kOrderingOther};

/// What the benchmark reads from one returned SpmdReport.
struct Ledger {
  std::uint64_t crossings = 0;  ///< ordering phases, max over ranks
  std::uint64_t words = 0;      ///< ordering phases, summed over ranks
  double imbalance_s = 0.0;     ///< sum over phases of (max − mean) wall
  double model_ratio = 0.0;     ///< modeled ÷ measured makespan
  double ordering_s = 0.0;      ///< ordering phases, max over ranks
  std::array<double, mps::kNumPhases> phase_s{};  ///< max over ranks
};

Ledger read_ledger(const mps::SpmdReport& r) {
  Ledger l;
  for (const auto& rank : r.ranks) {
    l.crossings = std::max(l.crossings, mps::ordering_crossings(rank));
    for (const auto p : kOrderingPhases) l.words += rank.phase(p).words;
  }
  for (int p = 0; p < mps::kNumPhases; ++p) {
    const auto agg = r.aggregate(static_cast<mps::Phase>(p));
    l.phase_s[static_cast<std::size_t>(p)] = agg.max.wall_seconds;
    l.imbalance_s += agg.max.wall_seconds - agg.mean.wall_seconds;
  }
  for (const auto p : kOrderingPhases) {
    l.ordering_s += l.phase_s[static_cast<std::size_t>(p)];
  }
  const double measured = r.measured_makespan();
  l.model_ratio = measured > 0.0 ? r.modeled_makespan() / measured : 0.0;
  return l;
}

std::vector<std::pair<std::string, double>> ledger_spans(const Ledger& l) {
  std::vector<std::pair<std::string, double>> out;
  for (int p = 0; p < mps::kNumPhases; ++p) {
    out.emplace_back(std::string(mps::phase_name(static_cast<mps::Phase>(p))),
                     l.phase_s[static_cast<std::size_t>(p)]);
  }
  return out;
}

double phase_of(const Ledger& l, mps::Phase p) {
  return l.phase_s[static_cast<std::size_t>(p)];
}

/// Ledger samples of the traced calls: the ordering phases of ordering
/// calls, the pipeline phases of whole requests.
struct LedgerSamples {
  std::vector<double> peripheral_spmspv, ordering_spmspv, ordering_sort,
      imbalance, model_ratio, redistribute, solver, cg_iter, ordering_share;

  void add_ordering(const Ledger& l) {
    peripheral_spmspv.push_back(phase_of(l, mps::Phase::kPeripheralSpmspv));
    ordering_spmspv.push_back(phase_of(l, mps::Phase::kOrderingSpmspv));
    ordering_sort.push_back(phase_of(l, mps::Phase::kOrderingSort));
    imbalance.push_back(l.imbalance_s);
    model_ratio.push_back(l.model_ratio);
  }

  void add_pipeline(const Ledger& l, int cg_iterations) {
    redistribute.push_back(phase_of(l, mps::Phase::kRedistribute));
    solver.push_back(phase_of(l, mps::Phase::kSolver));
    cg_iter.push_back(phase_of(l, mps::Phase::kSolver) /
                      std::max(1, cg_iterations));
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> rhs(index_t n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    b[static_cast<std::size_t>(v)] =
        1.0 + 0.5 * static_cast<double>((v * 2654435761u) % 1000) / 1000.0;
  }
  return b;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void emit_counters(Report& out, const Counters& c) {
  for (const auto& [k, v] : c) out.counter(k, v);
}

/// End-to-end metrics every workload reports.
void emit_end_to_end(Report& out, const std::vector<double>& op_s,
                     const std::vector<double>& setup_s) {
  const Tail tail = tail_of(op_s);
  out.metric("latency_p50_s", "s", median(op_s), op_s.size());
  out.metric("latency_tail_s", "s", tail.value, op_s.size());
  out.info("latency_tail_percentile", std::to_string(tail.percentile));
  out.metric("throughput_per_s", "1/s",
             static_cast<double>(op_s.size()) / sum(op_s), op_s.size());
  out.metric("setup_s", "s", median(setup_s), setup_s.size());
  out.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
}

/// The per-layer metrics every workload derives the same way: the exact
/// counters and the ledger samples.
void emit_ledger_metrics(Report& out, const Counters& c,
                         const LedgerSamples& s) {
  for (const auto& [k, v] : c) out.metric(k, "count", static_cast<double>(v), 1);
  const auto emit = [&](const char* name, const char* unit,
                        const std::vector<double>& v, double scale = 1.0) {
    out.metric(name, unit, scale * median(v), v.size());
  };
  emit("mpsim.imbalance_s", "s", s.imbalance);
  emit("mpsim.model_ratio", "ratio", s.model_ratio);
  emit("phase.peripheral_spmspv_s", "s", s.peripheral_spmspv);
  emit("phase.ordering_spmspv_s", "s", s.ordering_spmspv);
  emit("phase.ordering_sort_s", "s", s.ordering_sort);
  emit("phase.redistribute_s", "s", s.redistribute);
  emit("phase.solver_s", "s", s.solver);
  emit("solver.cg_iter_ms", "ms", s.cg_iter, 1e3);
  emit("service.ordering_share", "ratio", s.ordering_share);
}

void emit_trace_metrics(Report& out, const Trace& trace,
                        const std::vector<double>& traced,
                        const std::vector<double>& plain) {
  const auto shares = trace.unattributed_shares();
  out.metric("trace.overhead_ratio", "ratio", median(traced) / median(plain),
             traced.size());
  out.metric("trace.unattributed_share", "ratio", median(shares),
             shares.size());
}

/// The share metrics: how much of one p = 4 ordering the
/// barrier latency and the level step account for.
void emit_shares(Report& out, const LayerTimes& lt, const Counters& c,
                 double order_p4_s) {
  out.metric("mpsim.barrier_share", "ratio",
             lt.barrier_s * static_cast<double>(c.at("mpsim.crossings")) /
                 order_p4_s,
             1);
  out.metric("dist.level_step_share", "ratio",
             lt.level_step_s * static_cast<double>(c.at("rcm.levels")) /
                 order_p4_s,
             1);
}

}  // namespace

// ---------------------------------------------------------------------------
// order_deep / order_wide

void run_order(const RunConfig& cfg, bool deep, Report& out, Trace& trace) {
  // Inputs (the benchmark's own work; excluded from every metric).
  const auto adj =
      deep ? gen::relabel_random(gen::grid3d(10, 10, 300, gen::Stencil3d::k27),
                                 cfg.seed)
           : gen::erdos_renyi(60000, 24.0, cfg.seed);
  const auto spd = gen::with_laplacian_values(adj, 0.02);
  const auto b = rhs(adj.n());
  const auto ref = drcm::order::rcm_serial(adj);
  const index_t ref_bw = drcm::sparse::bandwidth_with_labels(adj, ref);
  out.info("input", std::string(deep ? "relabel_random(grid3d(10,10,300,k27))"
                                     : "erdos_renyi(60000, 24)") +
                        " n=" + std::to_string(adj.n()) +
                        " nnz=" + std::to_string(adj.nnz()));

  // Set-up: the warm-up pair (p = 4, then p = 1), kSetups times.
  std::vector<double> setup_s;
  Counters counters;
  for (int rep = 0; rep < kSetups; ++rep) {
    WallTimer t;
    const auto r4 = drcm::rcm::run_dist_order(kRanks, adj);
    const auto r1 = drcm::rcm::run_dist_order(1, adj);
    setup_s.push_back(t.seconds());
    out.check(r4.labels == ref, "warm-up p=4 labels == rcm_serial");
    out.check(r1.labels == ref, "warm-up p=1 labels == rcm_serial");
    const Ledger l = read_ledger(r4.report);
    const Counters c = {
        {"mpsim.crossings", l.crossings},
        {"mpsim.words", l.words},
        {"rcm.levels", static_cast<std::uint64_t>(r4.stats.ordering_levels)},
        {"rcm.sweeps",
         static_cast<std::uint64_t>(r4.stats.peripheral_bfs_sweeps)}};
    if (rep == 0) {
      counters = c;
    } else {
      out.check(c == counters, "exact counters repeat across set-ups");
    }
  }

  LayerTimes lt;
  if (cfg.traced) {
    lt = measure_layers({&adj, &spd, &ref, deep ? 40 : 15}, out);
  }

  // The measured loop: cycles of three p = 4 calls and one p = 1 call. In
  // a traced run every other cycle records spans, so traced and untraced
  // calls interleave under the same machine conditions.
  std::vector<double> p4_s, p1_s, p4_traced, p4_plain;
  LedgerSamples ledgers;
  const double budget = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  WallTimer loop;
  for (int cycle = 0; loop.seconds() < budget; ++cycle) {
    const bool traced_cycle = cfg.traced && cycle % 2 == 1;
    for (int k = 0; k < 4; ++k) {
      const int p = k < 3 ? kRanks : 1;
      const double start = trace.now();
      WallTimer t;
      const auto run = drcm::rcm::run_dist_order(p, adj);
      const double wall = t.seconds();
      out.check(run.labels == ref, "timed ordering labels == rcm_serial");
      (p == kRanks ? p4_s : p1_s).push_back(wall);
      if (!cfg.traced || p != kRanks) continue;
      (traced_cycle ? p4_traced : p4_plain).push_back(wall);
      if (traced_cycle) {
        const Ledger l = read_ledger(run.report);
        const auto id = trace.add("rcm.run_dist_order", 0, start, wall, "p=4");
        trace.add_ledger_children(id, start, ledger_spans(l));
        ledgers.add_ordering(l);
      }
    }
  }

  // The whole pipeline once (three times when traced) for the solver,
  // redistribution and resident-memory figures.
  for (int i = 0; i < (cfg.traced ? 3 : 1); ++i) {
    WallTimer t;
    const auto run = drcm::rcm::run_ordered_solve(kRanks, spd, b);
    const double wall = t.seconds();
    out.check(run.result.labels == ref, "ordered solve labels == rcm_serial");
    out.check(run.result.permuted_bandwidth == ref_bw,
              "ordered solve bandwidth == rcm_serial bandwidth");
    out.check(run.result.cg.converged, "ordered solve CG converged");
    const Ledger l = read_ledger(run.report);
    const Counters c = {
        {"solver.cg_iterations",
         static_cast<std::uint64_t>(run.result.cg.iterations)},
        {"dist.peak_resident", run.report.max_peak_resident()},
        {"service.cold_crossings", l.crossings}};
    for (const auto& [k, v] : c) {
      if (i == 0) {
        counters[k] = v;
      } else {
        out.check(counters[k] == v, "exact counter " + k + " repeats");
      }
    }
    ledgers.add_pipeline(l, run.result.cg.iterations);
    ledgers.ordering_share.push_back(l.ordering_s / wall);
  }
  emit_counters(out, counters);

  emit_end_to_end(out, p4_s, setup_s);
  out.metric("order_p1_s", "s", median(p1_s), p1_s.size());
  if (!cfg.traced) return;

  const double p4 = median(p4_s), p1 = median(p1_s);
  emit_ledger_metrics(out, counters, ledgers);
  out.metric("rcm.p1_over_serial", "ratio", p1 / lt.serial_s, p1_s.size());
  out.metric("rcm.p4_speedup", "ratio", p1 / p4, p4_s.size());
  // No service runs on the ordering workloads: its stream ratios and
  // repair/realloc counts are 0 here. The cold-request counts come from
  // the pipeline runs, which are what a cold service request executes.
  out.metric("service.hit_ratio", "ratio", 0.0, 0);
  out.metric("service.repair_ratio", "ratio", 0.0, 0);
  out.metric("service.repair_crossings", "count", 0.0, 0);
  out.metric("service.tail_reallocs", "count", 0.0, 0);
  emit_trace_metrics(out, trace, p4_traced, p4_plain);
  emit_shares(out, lt, counters, p4);
}

// ---------------------------------------------------------------------------
// serve_mix

namespace {

/// One request pattern: the replicated SPD fixture and the bandwidth its
/// serial RCM ordering gives (what every response must reproduce).
struct Pattern {
  drcm::sparse::CsrMatrix spd;
  index_t ref_bw = 0;
};
using PatternPtr = std::shared_ptr<const Pattern>;

PatternPtr make_pattern(const drcm::sparse::CsrMatrix& adj) {
  auto p = std::make_shared<Pattern>();
  p->spd = gen::with_laplacian_values(adj, 0.02);
  p->ref_bw = drcm::sparse::bandwidth_with_labels(adj, drcm::order::rcm_serial(adj));
  return p;
}

/// A fresh scattered shell: same shape as every other, its own pattern.
drcm::sparse::CsrMatrix shell(std::uint64_t seed, std::uint64_t k) {
  return gen::relabel_random(gen::grid3d(5, 5, 80, gen::Stencil3d::k27),
                             drcm::splitmix64(seed * 0x100000001b3ULL + k));
}

enum class Kind { kCold, kRepair, kHit };

const char* kind_name(Kind k) {
  return k == Kind::kCold ? "cold" : k == Kind::kRepair ? "repair" : "hit";
}

Kind kind_of(const svc::OrderSolveResponse& r) {
  return r.cache_hit ? Kind::kHit : r.repair_hit ? Kind::kRepair : Kind::kCold;
}

}  // namespace

void run_serve(const RunConfig& cfg, Report& out, Trace& trace) {
  // The repair fixture, built as examples/ordering_service.cpp's delta
  // phase builds it: n = 1280 puts the fingerprint row-window width at 80,
  // so the small component (the last 80 rows) fills window 15 alone and a
  // delta confined to it never touches the big component's windows.
  const auto fixture_adj =
      gen::disjoint_union({gen::grid2d(30, 40), gen::grid2d(8, 10)});
  const index_t small_lo = 30 * 40;
  drcm::Rng rng(cfg.seed);
  std::uint64_t next_delta = 0;
  auto repair_variant = [&](std::uint64_t dseed) {
    static constexpr index_t kEdits[3][2] = {{1, 0}, {0, 1}, {2, 1}};
    const auto& e = kEdits[dseed % 3];
    const auto delta = drcm::sparse::random_pattern_delta(
        fixture_adj, e[0], e[1], drcm::splitmix64(cfg.seed ^ (dseed << 20)),
        small_lo, fixture_adj.n());
    return make_pattern(drcm::sparse::apply_pattern_delta(fixture_adj, delta));
  };

  const auto shell_a_adj = shell(cfg.seed, 0);
  const auto shell_a = make_pattern(shell_a_adj);
  const auto shell_b = make_pattern(shell(cfg.seed, 1));
  const auto fixture = make_pattern(fixture_adj);
  const auto probe_delta = repair_variant(next_delta++);
  std::map<index_t, std::vector<double>> rhs_by_n;
  for (const auto& p : {shell_a, fixture}) {
    rhs_by_n[p->spd.n()] = rhs(p->spd.n());
  }

  svc::ServiceOptions options;
  options.ranks = kRanks;
  options.threads_per_rank = 1;
  auto submit = [&](svc::ReorderingService& service, const Pattern& p) {
    svc::OrderSolveRequest rq;
    rq.matrix = &p.spd;
    rq.b = rhs_by_n.at(p.spd.n());
    return service.submit(rq);
  };
  std::uint64_t fixture_cold_crossings = 0;
  auto check_response = [&](const svc::OrderSolveResponse& r,
                            const Pattern& p) {
    bool ok = r.status == svc::RequestStatus::kOk && r.cg.converged &&
              r.permuted_bandwidth == p.ref_bw;
    if (r.cache_hit) ok = ok && r.ordering_crossings == 0;
    if (r.repair_hit) {
      ok = ok && r.ordering_crossings > 0 &&
           r.ordering_crossings < fixture_cold_crossings;
    }
    return out.check(ok, std::string("serve_mix ") + kind_name(kind_of(r)) +
                             " response (status, CG, bandwidth, crossings)");
  };

  // Set-up: construct the service and warm it with a fixed sequence that
  // touches every request kind and both shapes, kSetups times. The sequence
  // is also the source of the exact counters: it is the same every time.
  const std::vector<std::pair<PatternPtr, Kind>> warmup = {
      {shell_a, Kind::kCold},      {shell_b, Kind::kCold},
      {fixture, Kind::kCold},      {probe_delta, Kind::kRepair},
      {shell_a, Kind::kHit},       {shell_b, Kind::kHit},
      {fixture, Kind::kHit},       {probe_delta, Kind::kHit}};
  std::vector<double> setup_s;
  Counters counters;
  std::unique_ptr<svc::ReorderingService> service;
  for (int rep = 0; rep < kSetups; ++rep) {
    std::vector<svc::OrderSolveResponse> resp;
    WallTimer t;
    service = std::make_unique<svc::ReorderingService>(options);
    for (const auto& [p, kind] : warmup) resp.push_back(submit(*service, *p));
    setup_s.push_back(t.seconds());
    fixture_cold_crossings = resp[2].ordering_crossings;
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      check_response(resp[i], *warmup[i].first);
      out.check(kind_of(resp[i]) == warmup[i].second,
                "warm-up request kind is the scripted one");
    }
    const Ledger l = read_ledger(resp[0].report);
    std::uint64_t tail_reallocs = 0;
    for (std::size_t i = 4; i < resp.size(); ++i) {
      tail_reallocs += resp[i].workspace_reallocations;
    }
    const Counters c = {
        {"mpsim.crossings", l.crossings},
        {"mpsim.words", l.words},
        {"solver.cg_iterations", static_cast<std::uint64_t>(resp[0].cg.iterations)},
        {"dist.peak_resident", resp[0].report.max_peak_resident()},
        {"service.cold_crossings", resp[0].ordering_crossings},
        {"service.repair_crossings", resp[3].ordering_crossings},
        {"service.tail_reallocs", tail_reallocs}};
    if (rep == 0) {
      counters = c;
    } else {
      out.check(c == counters, "exact counters repeat across set-ups");
    }
  }

  // Ordering statistics of the cold shell (responses carry no BFS stats).
  {
    const auto run = drcm::rcm::run_dist_order(kRanks, shell_a_adj);
    out.check(run.labels == drcm::order::rcm_serial(shell_a_adj),
              "shell ordering labels == rcm_serial");
    counters["rcm.levels"] = static_cast<std::uint64_t>(run.stats.ordering_levels);
    counters["rcm.sweeps"] = static_cast<std::uint64_t>(run.stats.peripheral_bfs_sweeps);
  }
  emit_counters(out, counters);

  LayerTimes lt;
  std::vector<double> probe_p4, probe_p1;
  if (cfg.traced) {
    const auto ref = drcm::order::rcm_serial(shell_a_adj);
    lt = measure_layers({&shell_a_adj, &shell_a->spd, &ref, 60}, out);
    for (int i = 0; i < 20; ++i) {
      for (const int p : {kRanks, 1}) {
        WallTimer t;
        const auto run = drcm::rcm::run_dist_order(p, shell_a_adj);
        (p == kRanks ? probe_p4 : probe_p1).push_back(t.seconds());
        out.check(run.labels == ref, "shell ordering labels == rcm_serial");
      }
    }
  }

  // The measured stream. Cold: a fresh shell. Repair: a fresh small-
  // component delta of the fixture. Hit: a repeat of one of the eight most
  // recently sent patterns. Over a run the cold shells outnumber the cache
  // capacity (64), so eviction runs; the kind of each request is read from
  // the response, so a hit whose pattern was evicted counts as cold.
  std::deque<PatternPtr> recent = {probe_delta, fixture, shell_b, shell_a};
  std::uint64_t next_shell = 2;
  std::map<Kind, std::vector<double>> by_kind;
  std::vector<double> all_s, traced_s, plain_s;
  LedgerSamples ledgers;
  std::map<Kind, std::uint64_t> intended, useful;
  // Traced and untraced requests alternate within each (intended kind,
  // shape) group, so both halves carry the same mix.
  std::map<std::pair<Kind, index_t>, std::uint64_t> group_seen;
  std::uint64_t stream_reallocs = 0;
  const double budget = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  WallTimer loop;
  while (loop.seconds() < budget) {
    const double u = rng.next_double();
    const Kind want = u < 0.3 ? Kind::kCold : u < 0.5 ? Kind::kRepair : Kind::kHit;
    PatternPtr p;
    if (want == Kind::kCold) {
      p = make_pattern(shell(cfg.seed, next_shell++));
    } else if (want == Kind::kRepair) {
      p = repair_variant(next_delta++);
    } else {
      p = recent[static_cast<std::size_t>(rng.next_below(recent.size()))];
    }
    if (want != Kind::kHit) {
      recent.push_front(p);
      if (recent.size() > 8) recent.pop_back();
    }
    const double start = trace.now();
    WallTimer t;
    const auto r = submit(*service, *p);
    const double wall = t.seconds();
    check_response(r, *p);
    const Kind kind = kind_of(r);
    all_s.push_back(wall);
    by_kind[kind].push_back(wall);
    ++intended[want];
    useful[want] += kind == want;
    stream_reallocs += r.workspace_reallocations;
    if (!cfg.traced) continue;
    const bool traced_request = group_seen[{want, p->spd.n()}]++ % 2 == 1;
    (traced_request ? traced_s : plain_s).push_back(wall);
    if (!traced_request) continue;
    const Ledger l = read_ledger(r.report);
    const auto id = trace.add("service.submit", 0, start, wall, kind_name(kind));
    trace.add_ledger_children(id, start, ledger_spans(l));
    ledgers.add_pipeline(l, r.cg.iterations);
    if (kind == Kind::kCold) {
      ledgers.add_ordering(l);
      ledgers.ordering_share.push_back(l.ordering_s / wall);
    }
  }
  out.info("stream_requests", std::to_string(all_s.size()));
  out.info("stream_reallocations", std::to_string(stream_reallocs));
  out.info("cache_size_at_end", std::to_string(service->cache_size()));

  emit_end_to_end(out, all_s, setup_s);
  for (const Kind k : {Kind::kCold, Kind::kRepair, Kind::kHit}) {
    const auto& v = by_kind[k];
    out.metric(std::string(kind_name(k)) + "_p50_s", "s", median(v), v.size());
  }
  if (!cfg.traced) return;

  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  emit_ledger_metrics(out, counters, ledgers);
  out.metric("rcm.p1_over_serial", "ratio", median(probe_p1) / lt.serial_s, probe_p1.size());
  out.metric("rcm.p4_speedup", "ratio", median(probe_p1) / median(probe_p4), probe_p4.size());
  out.metric("service.hit_ratio", "ratio", ratio(useful[Kind::kHit], intended[Kind::kHit]), intended[Kind::kHit]);
  out.metric("service.repair_ratio", "ratio", ratio(useful[Kind::kRepair], intended[Kind::kRepair]), intended[Kind::kRepair]);
  emit_trace_metrics(out, trace, traced_s, plain_s);
  emit_shares(out, lt, counters, median(probe_p4));
}

}  // namespace perfbench
